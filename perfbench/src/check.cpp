#include "check.hpp"

#include <map>
#include <stdexcept>

#include "service/serialize.hpp"

namespace perfbench {

namespace es = elpc::service;

CheckReport check_answers(const Workload& wl, const AnswerBook& book,
                          const std::vector<std::uint64_t>& applied) {
  std::map<std::string, std::size_t> net_index;
  for (std::size_t n = 0; n < wl.networks.size(); ++n) {
    net_index[wl.networks[n].first] = n;
  }
  // Group the answers by network, then revision.
  struct Pending {
    es::SolveJob job;
    const AnswerBook::Entry* entry = nullptr;
  };
  std::vector<std::map<std::uint64_t, std::vector<Pending>>> by_net(
      wl.networks.size());
  for (const auto& [key, entry] : book.entries()) {
    const auto [kind, index, revision] = key;
    es::SolveJob job = kind == static_cast<int>(AnswerBook::Kind::kJob)
                           ? wl.problems.at(index)
                           : wl.subscriptions.at(index);
    job.resolve_on_update = false;  // a scratch solve subscribes nothing
    by_net[net_index.at(job.network)][revision].push_back({job, &entry});
  }

  es::BatchEngineOptions options;
  options.threads = 4;
  es::BatchEngine engine(options);
  CheckReport report;
  for (std::size_t n = 0; n < wl.networks.size(); ++n) {
    if (by_net[n].empty()) {
      continue;
    }
    const std::string& id = wl.networks[n].first;
    engine.register_network(id, wl.networks[n].second);
    std::uint64_t at = 0;
    for (const auto& [revision, pending] : by_net[n]) {
      if (revision > applied[n]) {
        throw std::runtime_error("answer cites revision " +
                                 std::to_string(revision) +
                                 " that was never published");
      }
      for (; at < revision; ++at) {
        (void)engine.apply_link_updates(
            id, at == 0 ? wl.warmup_batches[n] : wl.batches[n][at - 1]);
      }
      std::vector<es::SolveJob> jobs;
      for (const Pending& p : pending) {
        jobs.push_back(p.job);
      }
      const std::vector<es::SolveResult> results = engine.solve(jobs);
      for (std::size_t i = 0; i < results.size(); ++i) {
        ++report.keys;
        const AnswerBook::Entry ref = AnswerBook::fingerprint(
            es::result_entry_to_json(results[i]).dump());
        if (ref.digest != pending[i].entry->digest ||
            ref.length != pending[i].entry->length) {
          report.failed_ops += pending[i].entry->ops;
        }
      }
    }
  }
  return report;
}

}  // namespace perfbench
