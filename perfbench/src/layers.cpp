#include "layers.hpp"

#include <array>
#include <functional>
#include <map>

#include "core/elpc.hpp"
#include "daemon/job_manager.hpp"
#include "daemon/socket_server.hpp"
#include "daemon/wire_format.hpp"
#include "host.hpp"
#include "mapping/problem.hpp"
#include "service/batch_engine.hpp"
#include "service/network_session.hpp"
#include "service/serialize.hpp"
#include "graph/serialize.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace ec = elpc::core;
namespace ed = elpc::daemon;
namespace eg = elpc::graph;
namespace es = elpc::service;
namespace eu = elpc::util;

namespace {

/// Seconds each layer's measurement repeats its inputs for.
constexpr double kBudgetS = 0.15;

/// Span op ids: the window's ops count from 1; each kind of layer call
/// gets its own range, so every op id names one call.
constexpr std::uint64_t kProbeOps = 1'000'000'000;
constexpr std::uint64_t kApplyOps = 2'000'000'000;
constexpr std::uint64_t kResolveOps = 3'000'000'000;
constexpr std::uint64_t kRegisterOps = 4'000'000'000;

/// Times calls into one layer.  Every call of the first pass over the
/// inputs becomes a span; passes repeat until the budget is spent.
class Probe {
 public:
  Probe(SpanLog& spans, std::uint32_t row) : spans_(spans), row_(row) {}

  /// Mean µs of `call(i)` over inputs [0, count), or 0 with no inputs.
  template <class F>
  double mean_us(const char* name, std::size_t count, F&& call) {
    if (count == 0) {
      return 0.0;
    }
    const std::uint64_t begin = now_ns();
    double total_us = 0.0;
    std::size_t calls = 0;
    for (std::size_t pass = 0;; ++pass) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t t0 = now_ns();
        const double extra_us = call(i);
        const std::uint64_t t1 = now_ns();
        total_us += static_cast<double>(t1 - t0) / 1e3 - extra_us;
        ++calls;
        if (pass == 0) {
          spans_.add({name, t0, t1, ++op_, "layers", row_});
        }
      }
      if (static_cast<double>(now_ns() - begin) / 1e9 >= kBudgetS ||
          pass >= 1000) {
        break;
      }
    }
    return total_us / static_cast<double>(calls);
  }

  /// Mean µs of each of `calls` on inputs [0, count): every input runs
  /// through all of them back to back, the first one rotating with the
  /// input and pass, so none of them always runs on caches the others
  /// just warmed.
  template <std::size_t N>
  std::array<double, N> rotated_us(
      const std::array<const char*, N>& names, std::size_t count,
      const std::array<std::function<void(std::size_t)>, N>& calls) {
    std::array<double, N> total{};
    std::size_t passes = 0;
    const std::uint64_t begin = now_ns();
    do {
      for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t k = 0; k < N; ++k) {
          const std::size_t c = (i + passes + k) % N;
          const std::uint64_t t0 = now_ns();
          calls[c](i);
          const std::uint64_t t1 = now_ns();
          total[c] += static_cast<double>(t1 - t0) / 1e3;
          if (passes == 0) {
            spans_.add({names[c], t0, t1, ++op_, "layers", row_});
          }
        }
      }
      ++passes;
    } while (static_cast<double>(now_ns() - begin) / 1e9 < kBudgetS &&
             passes < 1000);
    for (double& t : total) {
      t /= static_cast<double>(passes * count);
    }
    return total;
  }

 private:
  SpanLog& spans_;
  std::uint32_t row_;
  std::uint64_t op_ = kProbeOps;
};

double elapsed_us(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

}  // namespace

LayerReport measure_layers(const Workload& wl, std::size_t batches,
                           const std::vector<std::vector<std::string>>& frames,
                           const std::string& socket_path, SpanLog& spans) {
  LayerReport rep;
  const std::uint64_t phase_start = now_ns();
  Probe probe(spans, 1);
  const ec::kernels::Kind kernel =
      ec::kernels::resolve_kernel(ec::kernels::Kind::kAuto);
  std::map<std::string, const eg::Network*> nets;
  for (const auto& [id, net] : wl.networks) {
    net.finalize();
    nets[id] = &net;
  }
  const auto problem_of = [&](const es::SolveJob& job) {
    return elpc::mapping::Problem(job.pipeline, *nets.at(job.network),
                                  job.source, job.destination, job.cost);
  };
  const auto run = [](const elpc::mapping::Mapper& m,
                      const elpc::mapping::Problem& p, es::Objective o) {
    return o == es::Objective::kMaxFrameRate ? m.max_frame_rate(p)
                                             : m.min_delay(p);
  };
  const std::vector<es::SolveJob>& problems = wl.problems;
  const std::size_t np = problems.size();

  es::BatchEngineOptions eopt;
  eopt.threads = wl.spec.engine_threads;
  es::BatchEngine engine(eopt);
  for (const auto& [id, net] : wl.networks) {
    engine.register_network(id, net);
  }
  std::vector<es::SolveResult> results(np);

  // ---- core: the mapper as the engine configures it, then service and
  // daemon around it ----
  {
    es::MapperContext ctx;
    ctx.kernel = kernel;
    const elpc::mapping::MapperPtr plain = es::make_engine_elpc(ctx);
    ec::ElpcOptions sweep_opts;
    sweep_opts.framerate_kernel = kernel;
    sweep_opts.parallel_sweep = true;
    const ec::ElpcMapper sweep(sweep_opts);
    for (const es::SolveJob& job : problems) {  // untimed warm-up
      (void)run(*plain, problem_of(job), job.objective);
    }
    // The mapper alone, with the sweep, inside a one-job engine batch,
    // and through JobManager submit -> wait, rotated per problem.
    ed::JobManager manager(engine);
    const auto t = probe.rotated_us<4>(
        {"core.solve", "core.solve_sweep", "service.engine_solve",
         "daemon.job_manager"},
        np,
        {[&](std::size_t i) {
           (void)run(*plain, problem_of(problems[i]), problems[i].objective);
         },
         [&](std::size_t i) {
           (void)run(sweep, problem_of(problems[i]), problems[i].objective);
         },
         [&](std::size_t i) {
           results[i] = engine.solve({problems[i]}).front();
         },
         [&](std::size_t i) {
           (void)manager.wait(manager.submit(problems[i]));
         }});
    rep.metrics["core.solve_us"] = t[0];
    rep.metrics["core.solve_sweep_us"] = t[1];
    rep.metrics["service.engine_overhead_us"] = t[2] - t[0];
    rep.metrics["daemon.job_manager_overhead_us"] = t[3] - t[2];
  }

  // ---- core + service: checkpoint re-solves and session deltas ----
  {
    double resolve_us = 0.0;
    double apply_us = 0.0;
    std::size_t applies = 0;
    std::size_t cells = 0;
    std::size_t cells_total = 0;
    for (std::size_t n = 0; n < wl.batches.size(); ++n) {
      if (wl.batches[n].empty()) {
        continue;
      }
      const auto& [id, base] = wl.networks[n];
      const std::size_t count = std::min(batches, wl.batches[n].size());
      es::NetworkSession session(id, base, kSessionHistoryBytes);
      session.apply_link_updates(wl.warmup_batches[n]);
      for (std::size_t b = 0; b < count; ++b) {
        const std::uint64_t t0 = now_ns();
        session.apply_link_updates(wl.batches[n][b]);
        apply_us += elapsed_us(t0);
        spans.add({"service.apply_updates", t0, now_ns(),
                   kApplyOps + ++applies, "layers", 2});
      }
      for (const es::SolveJob& sub : wl.subscriptions) {
        if (sub.network != id ||
            sub.objective != es::Objective::kMaxFrameRate) {
          continue;
        }
        eg::Network net = base;
        ec::IncrementalCheckpoint checkpoint;
        const auto resolve = [&](const std::vector<eg::LinkUpdate>* delta,
                                 ec::IncrementalStats& stats) {
          es::MapperContext ctx;
          ctx.kernel = kernel;
          ctx.checkpoint = &checkpoint;
          ctx.delta = delta;
          ctx.incremental_stats = &stats;
          const elpc::mapping::MapperPtr m = es::make_engine_elpc(ctx);
          const elpc::mapping::Problem p(sub.pipeline, net, sub.source,
                                         sub.destination, sub.cost);
          const std::uint64_t t0 = now_ns();
          (void)m->max_frame_rate(p);
          return t0;
        };
        ec::IncrementalStats stats;
        (void)resolve(nullptr, stats);  // capture, as the install solve does
        net.apply_link_updates(wl.warmup_batches[n]);
        (void)resolve(&wl.warmup_batches[n], stats);
        for (std::size_t b = 0; b < count; ++b) {
          net.apply_link_updates(wl.batches[n][b]);
          stats = {};
          const std::uint64_t t0 = resolve(&wl.batches[n][b], stats);
          resolve_us += elapsed_us(t0);
          spans.add({"core.resolve", t0, now_ns(), kResolveOps + ++rep.resolves,
                     "layers", 3});
          rep.resolve_hits += stats.incremental ? 1 : 0;
          rep.columns_reused += stats.columns_reused;
          rep.columns_total += stats.columns_total;
          cells += stats.cells_recomputed;
          cells_total += stats.cells_total;
        }
      }
    }
    rep.metrics["core.resolve_us"] =
        rep.resolves > 0 ? resolve_us / static_cast<double>(rep.resolves) : 0;
    rep.metrics["core.cells_recomputed_share"] =
        cells_total > 0
            ? static_cast<double>(cells) / static_cast<double>(cells_total)
            : 0.0;
    rep.metrics["service.apply_updates_us"] =
        applies > 0 ? apply_us / static_cast<double>(applies) : 0.0;
  }

  // ---- service: registration, one-job batches, serialization ----
  {
    // The daemon registers a network parsed off the wire (not yet
    // finalized); registration finalizes it.
    std::vector<eu::Json> docs;
    for (const auto& [id, net] : wl.networks) {
      docs.push_back(eg::to_json(net));
    }
    double register_ms = 0.0;
    std::size_t registrations = 0;
    const std::uint64_t begin = now_ns();
    do {
      es::BatchEngineOptions o;
      o.threads = wl.spec.engine_threads;
      es::BatchEngine fresh(o);
      for (std::size_t n = 0; n < wl.networks.size(); ++n) {
        eg::Network parsed = eg::network_from_json(docs[n]);
        const std::uint64_t t0 = now_ns();
        fresh.register_network(wl.networks[n].first, std::move(parsed));
        register_ms += elapsed_us(t0) / 1e3;
        if (registrations < wl.networks.size()) {
          spans.add({"service.register_network", t0, now_ns(),
                     kRegisterOps + registrations, "layers", 4});
        }
        ++registrations;
      }
    } while (static_cast<double>(now_ns() - begin) / 1e9 < kBudgetS);
    rep.metrics["service.register_network_ms"] =
        register_ms / static_cast<double>(registrations);
  }

  std::vector<eu::Json> job_docs;
  for (const es::SolveJob& job : problems) {
    job_docs.push_back(es::to_json(job));
  }
  rep.metrics["service.serialize_us"] =
      probe.mean_us("service.serialize", np, [&](std::size_t i) {
        (void)es::job_from_json(job_docs[i]);
        (void)es::result_entry_to_json(results[i]).dump();
        return 0.0;
      });

  // ---- daemon: admission, verb handling, the v2 codec ----
  {
    ed::SocketServer server(socket_path, daemon_options(wl.spec));
    for (const auto& [id, net] : wl.networks) {
      server.engine().register_network(id, net);
    }
    std::vector<eu::Json> submits;
    for (const es::SolveJob& job : problems) {
      eu::Json frame = eu::JsonObject{};
      frame.set("verb", "submit");
      frame.set("job", es::to_json(job));
      frame.set("priority", 0);
      submits.push_back(std::move(frame));
    }
    rep.metrics["daemon.handle_us"] =
        probe.mean_us("daemon.handle", np, [&](std::size_t i) {
          const eu::Json ticket = server.handle(submits[i]).at("ticket");
          const std::uint64_t t0 = now_ns();
          (void)server.manager().wait(static_cast<ed::Ticket>(ticket.as_int()));
          const double waited_us = elapsed_us(t0);
          eu::Json poll = eu::JsonObject{};
          poll.set("verb", "poll");
          poll.set("ticket", ticket);
          (void)server.handle(poll);
          return waited_us;
        });
  }
  {
    namespace wire = ed::wire;
    rep.wire_job_us = probe.mean_us("daemon.wire_format", np, [&](std::size_t i) {
      const std::string table = wire::encode_result_table(
          std::span<const es::SolveResult>(&results[i], 1));
      (void)wire::decode_result_table(table);
      return 0.0;
    });
    std::vector<std::pair<std::size_t, std::size_t>> ops;  // (network, batch)
    std::map<std::size_t, std::vector<es::SolveResult>> sub_results;
    for (std::size_t n = 0; n < wl.batches.size(); ++n) {
      for (std::size_t b = 0; b < std::min(batches, wl.batches[n].size()); ++b) {
        ops.emplace_back(n, b);
      }
    }
    for (const es::SolveJob& sub : wl.subscriptions) {
      es::SolveJob job = sub;
      job.resolve_on_update = false;
      for (std::size_t n = 0; n < wl.networks.size(); ++n) {
        if (wl.networks[n].first == sub.network) {
          sub_results[n].push_back(engine.solve({job}).front());
        }
      }
    }
    const double batch_us =
        probe.mean_us("daemon.wire_format", ops.size(), [&](std::size_t i) {
          const auto [n, b] = ops[i];
          const std::string updates = wire::encode_link_update_table(
              wl.networks[n].first, wl.batches[n][b]);
          (void)wire::decode_link_update_table(updates);
          const std::string table = wire::encode_result_table(sub_results[n]);
          (void)wire::decode_result_table(table);
          return 0.0;
        });
    rep.metrics["daemon.wire_format_us"] =
        (rep.wire_job_us * static_cast<double>(np) +
         batch_us * static_cast<double>(ops.size())) /
        static_cast<double>(np + ops.size());
  }

  // ---- util: JSON parse + dump of every line one job exchanged ----
  rep.metrics["util.json_us"] =
      probe.mean_us("util.json", frames.size(), [&](std::size_t i) {
        for (const std::string& line : frames[i]) {
          (void)eu::Json::parse(line).dump();
        }
        return 0.0;
      });

  spans.add({"layers", phase_start, now_ns(), 0, "", 1});
  return rep;
}

}  // namespace perfbench
