#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/serialize.hpp"
#include "netmeasure/netmeasure.hpp"
#include "pipeline/generator.hpp"
#include "service/serialize.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace eg = elpc::graph;
namespace es = elpc::service;

namespace {

WorkloadSpec small_jobs() {
  WorkloadSpec s;
  s.name = "small_jobs";
  s.networks = 48;
  s.min_nodes = 6;
  s.max_nodes = 16;
  s.min_link_factor = 0.3;
  s.max_link_factor = 0.7;
  s.min_modules = 4;
  s.max_modules = 5;
  s.problems_per_network = 8;
  s.tcp = false;
  s.protocol = 1;
  s.engine_threads = 1;
  s.connections = 8;
  s.narrow_links = 1;
  return s;
}

WorkloadSpec large_solves() {
  WorkloadSpec s;
  s.name = "large_solves";
  s.networks = 6;
  s.min_nodes = 136;
  s.max_nodes = 150;
  s.min_link_factor = 0.9;
  s.max_link_factor = 0.95;
  s.min_links = 16384;
  s.min_modules = 6;
  s.max_modules = 8;
  s.problems_per_network = 64;
  s.tcp = false;
  s.protocol = 2;
  s.connections = 4;
  s.probe_batches = 10;
  return s;
}

WorkloadSpec link_churn() {
  WorkloadSpec s;
  s.name = "link_churn";
  s.networks = 8;
  s.min_nodes = 100;
  s.max_nodes = 200;
  s.min_link_factor = 0.035;
  s.max_link_factor = 0.05;
  s.min_modules = 6;
  s.max_modules = 9;
  s.problems_per_network = 32;
  s.tcp = true;
  s.protocol = 2;
  s.engine_threads = 1;
  s.connections = 16;
  s.updates_in_window = true;
  s.framerate_subs_per_network = 6;
  s.delay_subs_per_network = 3;
  return s;
}

/// Networks that receive link updates (every network in a window that
/// sends them; a few for the update probe).
std::size_t update_networks(const WorkloadSpec& spec) {
  return spec.updates_in_window ? spec.networks
                                : std::min<std::size_t>(spec.networks, 4);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A job on `network`; `slot` picks its module count by cycling through
/// the spec's range, so every network carries every pipeline length.
es::SolveJob make_job(elpc::util::Rng& rng, const WorkloadSpec& spec,
                      const std::string& id, const std::string& network,
                      std::size_t nodes, es::Objective objective,
                      std::size_t slot) {
  es::SolveJob job;
  job.id = id;
  job.network = network;
  const std::size_t modules =
      spec.min_modules + slot % (spec.max_modules - spec.min_modules + 1);
  job.pipeline = elpc::pipeline::random_pipeline(rng, modules, {});
  job.source = static_cast<eg::NodeId>(rng.index(nodes));
  do {
    job.destination = static_cast<eg::NodeId>(rng.index(nodes));
  } while (job.destination == job.source);
  job.objective = objective;
  job.cost = es::default_cost(objective);
  return job;
}

/// A netmeasure-style re-estimate of one link: the ground truth drifts,
/// then a probe round (synthesized transfers + regression) estimates it.
eg::LinkAttr remeasure(elpc::util::Rng& rng, const eg::LinkAttr& truth) {
  eg::LinkAttr drifted = truth;
  drifted.bandwidth_mbps =
      std::clamp(truth.bandwidth_mbps * rng.uniform_real(0.8, 1.25), 50.0,
                 2000.0);
  drifted.min_delay_s = std::clamp(
      truth.min_delay_s * rng.uniform_real(0.8, 1.25), 0.00005, 0.01);
  elpc::netmeasure::ProbePlan plan;
  plan.probes = 8;
  const auto probes = elpc::netmeasure::synthesize_probes(rng, drifted, plan);
  try {
    return elpc::netmeasure::estimate_link(probes).attr;
  } catch (const std::invalid_argument&) {
    return drifted;  // degenerate fit: keep the drifted truth
  }
}

/// One batch into `truth` (mutated: drift accumulates across batches).
/// Links are chosen by distinct target node, one incoming link each.
std::vector<eg::LinkUpdate> make_batch(elpc::util::Rng& rng,
                                       eg::Network& truth,
                                       std::size_t targets) {
  const std::size_t n = truth.node_count();
  std::vector<eg::NodeId> order(n);
  std::iota(order.begin(), order.end(), eg::NodeId{0});
  targets = std::min(targets, n);
  for (std::size_t i = 0; i < targets; ++i) {
    std::swap(order[i], order[i + rng.index(n - i)]);
  }
  std::vector<eg::LinkUpdate> batch;
  for (std::size_t i = 0; i < targets; ++i) {
    const auto in = truth.in_edges(order[i]);
    if (in.empty()) {
      continue;
    }
    const eg::Edge& edge = in[rng.index(in.size())];
    batch.push_back({edge.from, edge.to, remeasure(rng, edge.attr)});
  }
  for (const eg::LinkUpdate& u : batch) {
    truth.update_link(u.from, u.to, u.attr);
  }
  return batch;
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs{small_jobs(), large_solves(),
                                               link_churn()};
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::size_t batches_per_window(double seconds) {
  return static_cast<std::size_t>(std::floor(kBatchesPerSecond * seconds));
}

Workload generate(const WorkloadSpec& spec, std::uint64_t seed,
                  double window_seconds) {
  Workload wl;
  wl.spec = spec;
  elpc::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);

  // Sizes are stratified over the spec's ranges: network i draws its
  // node count and link density from the i-th of `networks` equal
  // slices, so every seed spans the ranges evenly and per-seed totals
  // barely move.
  const auto stratified = [&](double lo, double hi, std::size_t slice) {
    return lo + (hi - lo) * (static_cast<double>(slice) + rng.uniform_real(0, 1)) /
                    static_cast<double>(spec.networks);
  };
  for (std::size_t i = 0; i < spec.networks; ++i) {
    const auto nodes = static_cast<std::size_t>(std::lround(stratified(
        static_cast<double>(spec.min_nodes), static_cast<double>(spec.max_nodes), i)));
    const double pairs = static_cast<double>(nodes * (nodes - 1));
    const double factor =
        stratified(spec.min_link_factor, spec.max_link_factor, i);
    const std::size_t links = std::clamp<std::size_t>(
        std::max(spec.min_links, static_cast<std::size_t>(pairs * factor)),
        nodes, nodes * (nodes - 1));
    wl.networks.emplace_back(
        spec.name + "-n" + std::to_string(i),
        eg::random_connected_network(rng, nodes, links, {}));
  }

  // Half of every network's problems maximize frame rate, half
  // minimize delay.
  const std::size_t fr_per_net = (spec.problems_per_network + 1) / 2;
  for (std::size_t i = 0; i < spec.networks; ++i) {
    const auto& [id, net] = wl.networks[i];
    for (std::size_t p = 0; p < spec.problems_per_network; ++p) {
      const es::Objective objective = p < fr_per_net
                                          ? es::Objective::kMaxFrameRate
                                          : es::Objective::kMinDelay;
      wl.problems.push_back(make_job(rng, spec,
                                     "p" + std::to_string(wl.problems.size()),
                                     id, net.node_count(), objective, p + i));
    }
  }

  wl.job_stream.resize(std::size_t{1} << 17);
  for (std::uint32_t& op : wl.job_stream) {
    op = static_cast<std::uint32_t>(rng.index(wl.problems.size()));
  }

  // Subscriptions and batches come from their own stream, so the probe
  // inputs never perturb the job stream.
  elpc::util::Rng urng(seed * 0xbf58476d1ce4e5b9ULL + 0x0bad);
  const std::size_t unets = update_networks(spec);
  const std::size_t per_net =
      spec.updates_in_window ? batches_per_window(window_seconds) + 2
                             : spec.probe_batches;
  wl.batches.resize(spec.networks);
  wl.warmup_batches.resize(spec.networks);
  for (std::size_t i = 0; i < unets; ++i) {
    const auto& [id, net] = wl.networks[i];
    for (std::size_t s = 0; s < spec.framerate_subs_per_network +
                                    spec.delay_subs_per_network;
         ++s) {
      const es::Objective objective = s < spec.framerate_subs_per_network
                                          ? es::Objective::kMaxFrameRate
                                          : es::Objective::kMinDelay;
      es::SolveJob job = make_job(
          urng, spec, "s" + std::to_string(wl.subscriptions.size()), id,
          net.node_count(), objective, s + i);
      job.resolve_on_update = true;
      wl.subscriptions.push_back(std::move(job));
    }
    eg::Network truth = net;
    const std::size_t wide = static_cast<std::size_t>(std::ceil(
        kWideNodeShare * static_cast<double>(net.node_count())));
    wl.warmup_batches[i] = make_batch(urng, truth, spec.narrow_links);
    for (std::size_t b = 0; b < per_net; ++b) {
      const bool is_wide = (b + 1) % kWideEvery == 0;
      wl.batches[i].push_back(
          make_batch(urng, truth, is_wide ? wide : spec.narrow_links));
    }
  }

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [id, net] : wl.networks) {
    h = fnv1a(h, id);
    h = fnv1a(h, elpc::graph::to_json(net).dump());
  }
  for (const es::SolveJob& job : wl.problems) {
    h = fnv1a(h, es::to_json(job).dump());
  }
  for (const es::SolveJob& job : wl.subscriptions) {
    h = fnv1a(h, es::to_json(job).dump());
  }
  std::string stream;
  for (const std::uint32_t op : wl.job_stream) {
    stream += std::to_string(op);
    stream += ',';
  }
  h = fnv1a(h, stream);
  for (std::size_t i = 0; i < wl.batches.size(); ++i) {
    h = fnv1a(h, es::link_updates_to_json(wl.warmup_batches[i]).dump());
    for (const auto& batch : wl.batches[i]) {
      h = fnv1a(h, es::link_updates_to_json(batch).dump());
    }
  }
  wl.hash = h;
  return wl;
}

}  // namespace perfbench
