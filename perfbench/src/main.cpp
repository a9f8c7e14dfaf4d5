// perfbench — end-to-end benchmark of the mapping daemon.
//
//   perfbench --workload <small_jobs|large_solves|link_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// Runs one workload for one seed against an in-process daemon
// (daemon::SocketServer, serve() on a thread) driven by a one-thread
// load generator over the workload's transport and protocol.  Every
// answer is checked against a direct solve after the window.  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics with --trace 0, the per-layer
// metrics (from a separate traced run) with --trace 1.  A readable
// table of everything measured goes to stderr.

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "util/json.hpp"
#include "warmers.hpp"
#include "workload.hpp"

namespace pb = perfbench;
namespace eu = elpc::util;

namespace {

constexpr int kSetups = 5;
/// Jobs of the deterministic replay (one connection, in stream order).
constexpr std::size_t kReplayJobs = 200;
/// Batches per updated network in the replay and the direct re-solves.
constexpr std::size_t kReplayBatches = 40;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  /// workloads.json: its reference_hashes pin the generator's op stream.
  std::string manifest;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--manifest") {
      a.manifest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (pb::find_workload(a.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return a;
}

/// Nearest-rank percentile (q in [0, 1]) of unsorted values.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ms(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

double peak_rss_mb() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Client-observed job latencies (submit sent -> result received), ms.
std::vector<double> job_latencies(const pb::LoadResult& r) {
  std::vector<double> out;
  for (const pb::JobSample& j : r.jobs) {
    out.push_back(ms(j.sent_ns, j.done_ns));
  }
  return out;
}

/// Update latencies from each batch's due time, ms.
std::vector<double> resolve_latencies(const pb::LoadResult& r) {
  std::vector<double> out;
  for (const pb::UpdateSample& u : r.updates) {
    out.push_back(ms(u.due_ns, u.done_ns));
  }
  return out;
}

/// Jobs per block of the end-to-end statistics.
constexpr std::size_t kBlockJobs = 1000;

/// The window's jobs in completion order, cut into blocks of kBlockJobs
/// (a partial last block is dropped unless it is the only one).  Each
/// block gives a latency p50 and p99 (10 samples beyond it) and a
/// completion rate; a run reports the median over its blocks, so a burst
/// of lost CPU on a shared machine moves only the blocks it hits.
struct Blocks {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
};

Blocks job_blocks(const pb::LoadResult& r) {
  std::vector<const pb::JobSample*> done;
  for (const pb::JobSample& j : r.jobs) {
    done.push_back(&j);
  }
  std::sort(done.begin(), done.end(),
            [](const pb::JobSample* a, const pb::JobSample* b) {
              return a->done_ns < b->done_ns;
            });
  Blocks b;
  std::uint64_t prev = r.start_ns;
  const std::size_t size = std::min(kBlockJobs, done.size());
  for (std::size_t lo = 0; size > 0 && lo + size <= done.size(); lo += size) {
    std::vector<double> lat;
    for (std::size_t i = lo; i < lo + size; ++i) {
      lat.push_back(ms(done[i]->sent_ns, done[i]->done_ns));
    }
    const std::uint64_t end = done[lo + size - 1]->done_ns;
    b.p50.push_back(percentile(lat, 0.5));
    b.p99.push_back(percentile(lat, 0.99));
    b.rate.push_back(static_cast<double>(size) /
                     (static_cast<double>(end - prev) / 1e9));
    prev = end;
  }
  return b;
}

/// Process CPU µs per completed op (jobs + update batches) in each CPU
/// sampling slice, median over the slices that completed any op.
double cpu_per_op(const pb::LoadResult& r) {
  std::vector<std::uint64_t> done;
  for (const pb::JobSample& j : r.jobs) {
    done.push_back(j.done_ns);
  }
  for (const pb::UpdateSample& u : r.updates) {
    done.push_back(u.done_ns);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> per_op;
  for (std::size_t i = 1; i < r.cpu.size(); ++i) {
    const auto lo = std::upper_bound(done.begin(), done.end(), r.cpu[i - 1].ns);
    const auto hi = std::upper_bound(done.begin(), done.end(), r.cpu[i].ns);
    if (hi > lo) {
      per_op.push_back((r.cpu[i].cpu_us - r.cpu[i - 1].cpu_us) /
                       static_cast<double>(hi - lo));
    }
  }
  return percentile(per_op, 0.5);
}

/// Ops the generator sent late: send time minus due time, ms (due = the
/// schedule for updates, the previous answer for closed-loop jobs).
std::vector<double> lateness(const pb::LoadResult& r) {
  std::vector<double> out;
  for (const pb::JobSample& j : r.jobs) {
    out.push_back(ms(j.due_ns, j.sent_ns));
  }
  for (const pb::UpdateSample& u : r.updates) {
    out.push_back(ms(u.due_ns, u.sent_ns));
  }
  return out;
}

/// Share of jobs whose lifetime overlaps an in-flight update batch (the
/// population that may queue behind a re-solve).
double overlap_share(const pb::LoadResult& r) {
  if (r.jobs.empty()) {
    return 0.0;
  }
  // Updates by send time, with the running maximum of their answer time:
  // a job [sent, done) overlaps one iff some update sent before `done`
  // answered after `sent`.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> upd;
  for (const pb::UpdateSample& u : r.updates) {
    upd.emplace_back(u.sent_ns, u.done_ns);
  }
  std::sort(upd.begin(), upd.end());
  for (std::size_t i = 1; i < upd.size(); ++i) {
    upd[i].second = std::max(upd[i].second, upd[i - 1].second);
  }
  std::size_t hit = 0;
  for (const pb::JobSample& j : r.jobs) {
    const auto it = std::lower_bound(
        upd.begin(), upd.end(), std::make_pair(j.done_ns, std::uint64_t{0}));
    if (it != upd.begin() && std::prev(it)->second > j.sent_ns) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(r.jobs.size());
}

struct Ledger {
  bool ok = true;
  std::string detail;
};

/// The daemon's own counters over the window must equal what the client
/// completed: every job once in done+failed and in the e2e histogram,
/// every solve (jobs + re-solved subscriptions) once in elpc_solve_ms.
Ledger ledger(const pb::LoadResult& r, const pb::MetricsReading& before,
              const pb::MetricsReading& after) {
  double resolved = 0;
  for (const pb::UpdateSample& u : r.updates) {
    resolved += static_cast<double>(u.results);
  }
  const double jobs = static_cast<double>(r.jobs.size());
  const double terminal = after.delta(before, "elpc_jobs_done_total") +
                          after.delta(before, "elpc_jobs_failed_total");
  const double e2e = after.delta(before, "elpc_e2e_ms_count");
  const double solves = after.delta(before, "elpc_solve_ms_count");
  Ledger l;
  l.ok = terminal == jobs && e2e == jobs && solves == jobs + resolved;
  l.detail = "client jobs " + std::to_string(r.jobs.size()) +
             " re-solves " + std::to_string(static_cast<long>(resolved)) +
             " | daemon terminal " + std::to_string(static_cast<long>(terminal)) +
             " e2e " + std::to_string(static_cast<long>(e2e)) + " solves " +
             std::to_string(static_cast<long>(solves));
  return l;
}

std::size_t failed_ops(const pb::LoadResult& r) {
  std::size_t n = 0;
  for (const pb::JobSample& j : r.jobs) {
    n += j.ok ? 0 : 1;
  }
  for (const pb::UpdateSample& u : r.updates) {
    n += u.ok ? 0 : 1;
  }
  return n;
}

struct Output {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
  }
  void print() const {
    for (const auto& [name, vu] : metrics) {
      std::fprintf(stderr, "  %-34s %14.6f %s\n", name.c_str(), vu.first,
                   vu.second.c_str());
    }
    eu::Json m = eu::JsonObject{};
    for (const auto& [name, vu] : metrics) {
      eu::Json v = eu::JsonObject{};
      v.set("value", vu.first);
      v.set("unit", vu.second);
      m.set(name, std::move(v));
    }
    eu::Json doc = eu::JsonObject{};
    doc.set("correct", correct);
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    doc.set("metrics", std::move(m));
    std::cout << doc.dump() << std::endl;
  }
};

/// One replay on a fresh daemon: kReplayJobs jobs in stream order on one
/// connection, then every updated network's first batches, each sent as
/// soon as the previous answered.  Byte counts and incremental counters
/// of a replay repeat exactly for one seed.
struct Replay {
  double bytes_per_op = 0.0;
  double hits = 0;
  double misses = 0;
  double columns_reused = 0;
  pb::LoadResult jobs;
  pb::LoadResult updates;
  std::vector<std::uint64_t> revisions;
};

/// Batches per updated network the replay (and the direct re-solves)
/// run: kReplayBatches, or fewer where the workload has fewer.
std::size_t replay_batches(const pb::Workload& wl) {
  std::size_t n = kReplayBatches;
  for (const auto& batches : wl.batches) {
    if (!batches.empty()) {
      n = std::min(n, batches.size());
    }
  }
  return n;
}

Replay replay(const pb::Workload& wl, pb::AnswerBook& book,
              const std::string& path) {
  Replay rp;
  pb::Stack s = pb::setup_stack(wl, book, path, true);
  pb::SpanLog none(false);
  pb::LoadOptions a;
  a.max_jobs = kReplayJobs;
  a.connections = 1;
  a.keep_frames = true;
  rp.jobs = s.gen->run(a, none);
  const pb::MetricsReading before(s.control->metrics());
  pb::LoadOptions b;
  b.updates = true;
  b.asap = true;
  b.batches = replay_batches(wl);
  rp.updates = s.gen->run(b, none);
  const pb::MetricsReading after(s.control->metrics());
  rp.hits = after.delta(before, "elpc_incremental_hits_total");
  rp.misses = after.delta(before, "elpc_incremental_misses_total");
  rp.columns_reused =
      after.delta(before, "elpc_incremental_columns_reused_total");
  const double bytes =
      static_cast<double>(rp.jobs.bytes_sent + rp.jobs.bytes_received +
                          rp.updates.bytes_sent + rp.updates.bytes_received);
  rp.bytes_per_op =
      bytes / static_cast<double>(rp.jobs.jobs.size() + rp.updates.updates.size());
  rp.revisions = s.gen->revisions();
  s.teardown();
  return rp;
}

/// The correctness gate, after the load: the daemon's ledger over
/// `window`, then every answer on file against a direct solve.  Every op
/// of `runs` counts as attempted; failed ones and wrong answers as failed.
void gate(const pb::Workload& wl, const pb::AnswerBook& book,
          const std::vector<std::uint64_t>& applied,
          const pb::LoadResult& window, const pb::MetricsReading& before,
          const pb::MetricsReading& after,
          std::initializer_list<const pb::LoadResult*> runs, Output& out) {
  const pb::CheckReport check = pb::check_answers(wl, book, applied);
  const Ledger led = ledger(window, before, after);
  std::fprintf(stderr, "perfbench: ledger %s (%s); %zu answers checked\n",
               led.ok ? "ok" : "MISMATCH", led.detail.c_str(), check.keys);
  if (!led.ok) {
    out.fail("daemon ledger disagrees with the client");
  }
  out.failed = check.failed_ops;
  for (const pb::LoadResult* r : runs) {
    out.attempted += r->jobs.size() + r->updates.size();
    out.failed += failed_ops(*r);
  }
  if (out.failed > 0) {
    out.fail(std::to_string(out.failed) + " failed or wrong answers");
  }
}

/// One set-up in a forked child; returns its setup_s.  Forks while this
/// process runs no thread of its own.
double setup_in_child(const pb::Workload& wl, const std::string& path) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const pid_t child = ::fork();
  if (child < 0) {
    throw std::runtime_error("fork failed");
  }
  if (child == 0) {
    ::close(fds[0]);
    double seconds = -1.0;
    try {
      pb::AnswerBook book;
      pb::Stack s = pb::setup_stack(wl, book, path, wl.spec.updates_in_window);
      seconds = s.setup_s;
      s.teardown();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    }
    const ssize_t n = ::write(fds[1], &seconds, sizeof(seconds));
    ::_exit(n == static_cast<ssize_t>(sizeof(seconds)) ? 0 : 1);
  }
  ::close(fds[1]);
  double seconds = -1.0;
  const ssize_t n = ::read(fds[0], &seconds, sizeof(seconds));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  if (n != static_cast<ssize_t>(sizeof(seconds)) || seconds < 0) {
    throw std::runtime_error("set-up child failed");
  }
  return seconds;
}

int run(const Args& args) {
  const pb::Warmers warmers;  // first: forks before any thread starts
  const pb::WorkloadSpec& spec = *pb::find_workload(args.workload);
  ::mkdir(args.out.c_str(), 0755);
  Output out;

  // Inputs, and the generator's determinism self-check.
  const pb::Workload wl = pb::generate(spec, args.seed, args.seconds);
  if (pb::generate(spec, args.seed, args.seconds).hash != wl.hash) {
    out.fail("same seed gave a different op stream");
  }
  if (pb::generate(spec, args.seed + 1, args.seconds).hash == wl.hash) {
    out.fail("different seeds gave the same op stream");
  }
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(wl.hash));
  std::fprintf(stderr, "perfbench: %s seed %llu op-stream hash %s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               hash);
  if (!args.manifest.empty()) {
    std::ifstream in(args.manifest);
    std::stringstream text;
    text << in.rdbuf();
    const eu::Json manifest = eu::Json::parse(text.str());
    const eu::Json& ref = manifest.at("reference_hashes").at(spec.name);
    if (static_cast<std::uint64_t>(ref.at("seed").as_int()) == args.seed &&
        ref.at("seconds").as_number() == args.seconds &&
        ref.at("hash").as_string() != hash) {
      out.fail("op stream differs from the recorded reference hash");
    }
  }

  // Set-up, kSetups times: each but the last in a child process of its
  // own (a fresh heap and caches, as a real daemon start has, and no
  // effect on this process's peak RSS); the last daemon serves the window.
  pb::AnswerBook book;
  std::vector<double> setups;
  for (int k = 0; k + 1 < kSetups; ++k) {
    setups.push_back(setup_in_child(wl, pb::socket_path(args.out, k)));
  }
  pb::Stack stack = pb::setup_stack(wl, book, pb::socket_path(args.out, kSetups),
                                    spec.updates_in_window);
  setups.push_back(stack.setup_s);
  std::vector<std::uint64_t> applied = stack.gen->revisions();
  const auto note_applied = [&applied](const std::vector<std::uint64_t>& r) {
    for (std::size_t n = 0; n < r.size(); ++n) {
      applied[n] = std::max(applied[n], r[n]);
    }
  };

  pb::LoadOptions window;
  window.connections = spec.connections;
  window.updates = spec.updates_in_window;
  window.seconds = args.trace ? args.seconds / 2 : args.seconds;
  window.batches = pb::batches_per_window(window.seconds);
  pb::SpanLog off(false);
  pb::SpanLog spans(true);

  if (!args.trace) {
    const pb::MetricsReading before(stack.control->metrics());
    const pb::LoadResult r = stack.gen->run(window, off);
    const double rss = peak_rss_mb();
    const pb::MetricsReading after(stack.control->metrics());
    note_applied(stack.gen->revisions());
    stack.teardown();

    gate(wl, book, applied, r, before, after, {&r}, out);
    const Blocks b = job_blocks(r);
    out.add("jobs_per_s", percentile(b.rate, 0.5), "1/s");
    out.add("job_p50_ms", percentile(b.p50, 0.5), "ms");
    out.add("job_p99_ms", percentile(b.p99, 0.5), "ms");
    out.add("setup_s", percentile(setups, 0.5), "s");
    out.add("peak_rss_mb", rss, "MB");
    out.add("cpu_us_per_op", cpu_per_op(r), "us");
    std::fprintf(stderr,
                 "perfbench: %zu job samples in %zu blocks of <= %zu (block "
                 "rate quartiles %.0f %.0f %.0f /s); whole window: %.1f "
                 "jobs/s, p50 %.4f ms, p99 %.4f ms\n",
                 r.jobs.size(), b.rate.size(), kBlockJobs,
                 percentile(b.rate, 0.25), percentile(b.rate, 0.5),
                 percentile(b.rate, 0.75),
                 static_cast<double>(r.jobs.size()) / window.seconds,
                 percentile(job_latencies(r), 0.5),
                 percentile(job_latencies(r), 0.99));
    const std::vector<double> res = resolve_latencies(r);
    std::fprintf(stderr,
                 "perfbench: %zu jobs (%.1f/s mean), %zu update batches; "
                 "resolve p50 %.4f ms p90 %.4f ms; jobs overlapping an "
                 "update %.3f; late p99 %.4f ms\n",
                 r.jobs.size(),
                 static_cast<double>(r.jobs.size()) / window.seconds,
                 r.updates.size(), percentile(res, 0.5), percentile(res, 0.9),
                 overlap_share(r), percentile(lateness(r), 0.99));
    out.print();
    return 0;
  }

  // ---- traced run ----
  const pb::LoadResult plain = stack.gen->run(window, off);
  const pb::MetricsReading before(stack.control->metrics());
  const std::uint64_t traced_start = pb::now_ns();
  const pb::LoadResult r = stack.gen->run(window, spans);
  const double wall_ms = ms(traced_start, pb::now_ns());
  const pb::MetricsReading after(stack.control->metrics());
  note_applied(stack.gen->revisions());
  stack.teardown();

  Replay rp[2];
  for (int k = 0; k < 2; ++k) {
    rp[k] = replay(wl, book, pb::socket_path(args.out, 10 + k));
    note_applied(rp[k].revisions);
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double hit_ratio = ratio(rp[0].hits, rp[0].hits + rp[0].misses);
  if (rp[0].bytes_per_op != rp[1].bytes_per_op ||
      hit_ratio != ratio(rp[1].hits, rp[1].hits + rp[1].misses)) {
    out.fail("replays of one seed disagree on bytes_per_op or hit ratio");
  }

  pb::SpanLog layer_spans(true);
  const pb::LayerReport layers = pb::measure_layers(
      wl, replay_batches(wl), rp[0].jobs.frames, pb::socket_path(args.out, 20),
      layer_spans);
  spans.merge(layer_spans);
  if (rp[0].hits != static_cast<double>(layers.resolve_hits) ||
      rp[0].hits + rp[0].misses != static_cast<double>(layers.resolves) ||
      rp[0].columns_reused != static_cast<double>(layers.columns_reused)) {
    out.fail("daemon incremental counters disagree with direct re-solves");
  }

  gate(wl, book, applied, r, before, after,
       {&plain, &r, &rp[0].jobs, &rp[0].updates, &rp[1].jobs, &rp[1].updates},
       out);

  // Daemon-side means over the traced window.
  const double jobs = after.delta(before, "elpc_e2e_ms_count");
  const double queue_ms =
      ratio(after.delta(before, "elpc_queue_wait_ms_sum"), jobs);
  const double e2e_ms = ratio(after.delta(before, "elpc_e2e_ms_sum"), jobs);
  // On link_churn the solve histogram also holds the re-solves.
  const double solve_ms =
      ratio(after.delta(before, "elpc_solve_ms_sum"),
            after.delta(before, "elpc_solve_ms_count"));
  const double straggle_ms = e2e_ms - queue_ms - solve_ms;
  const double client_us = mean(job_latencies(r)) * 1e3;
  const double plain_us = mean(job_latencies(plain)) * 1e3;
  const double outside_us = client_us - e2e_ms * 1e3;
  // Attribution by means along a job's blocking path: the daemon's
  // queue/solve/straggle, plus the named front-end costs of the outside
  // time (JSON, verb handling incl. serialization, the v2 result codec).
  const double wire_us = spec.protocol >= 2 ? layers.wire_job_us : 0.0;
  const double attributed_us = e2e_ms * 1e3 + layers.metrics.at("util.json_us") +
                               layers.metrics.at("daemon.handle_us") + wire_us;
  const pb::LoadResult& upd = spec.updates_in_window ? plain : rp[0].updates;
  const std::vector<double> res = resolve_latencies(upd);

  const auto layer = [&](const char* name) { return layers.metrics.at(name); };
  out.add("core.solve_us", layer("core.solve_us"), "us");
  out.add("core.solve_sweep_us", layer("core.solve_sweep_us"), "us");
  out.add("core.resolve_us", layer("core.resolve_us"), "us");
  out.add("core.cells_recomputed_share", layer("core.cells_recomputed_share"),
          "ratio");
  out.add("service.engine_overhead_us", layer("service.engine_overhead_us"),
          "us");
  out.add("service.engine_busy_share",
          after.delta(before, "elpc_solve_ms_sum") /
              (static_cast<double>(spec.engine_threads) * wall_ms),
          "ratio");
  out.add("service.apply_updates_us", layer("service.apply_updates_us"), "us");
  out.add("service.incremental_hit_ratio", hit_ratio, "ratio");
  out.add("service.columns_reused_share",
          ratio(rp[0].columns_reused, static_cast<double>(layers.columns_total)),
          "ratio");
  out.add("service.evictions",
          after.delta(before, "elpc_cache_evictions_total") +
              after.delta(before, "elpc_checkpoint_evictions_total"),
          "count");
  out.add("service.register_network_ms", layer("service.register_network_ms"),
          "ms");
  out.add("service.serialize_us", layer("service.serialize_us"), "us");
  out.add("daemon.queue_wait_ms_mean", queue_ms, "ms");
  out.add("daemon.straggle_ms_mean", straggle_ms, "ms");
  out.add("daemon.job_manager_overhead_us",
          layer("daemon.job_manager_overhead_us"), "us");
  out.add("daemon.handle_us", layer("daemon.handle_us"), "us");
  out.add("daemon.outside_us", outside_us, "us");
  out.add("daemon.wire_format_us", layer("daemon.wire_format_us"), "us");
  out.add("daemon.bytes_per_op", rp[0].bytes_per_op, "B");
  out.add("util.json_us", layer("util.json_us"), "us");
  out.add("client.resolve_p50_ms", percentile(res, 0.5), "ms");
  out.add("client.resolve_p90_ms", percentile(res, 0.9), "ms");
  out.add("residual_share", 1.0 - attributed_us / client_us, "ratio");
  out.add("trace_overhead_share", client_us / plain_us - 1.0, "ratio");
  out.add("loadgen.late_p99_ms", percentile(lateness(r), 0.99), "ms");

  const std::string trace_path = args.out + "/trace-" + spec.name + ".json";
  const std::string trace_error = spans.write_chrome_trace(trace_path);
  if (!trace_error.empty()) {
    out.fail("chrome trace invalid: " + trace_error);
  }
  std::fprintf(stderr,
               "perfbench: %zu spans (%zu past the cap dropped) -> %s; self "
               "time per span:\n",
               spans.spans().size(), spans.dropped(), trace_path.c_str());
  for (const pb::SpanLog::SelfTime& t : spans.self_times()) {
    std::fprintf(stderr, "  %-26s n=%-8llu mean %10.3f us  self %10.3f us\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.count),
                 t.total_us / static_cast<double>(t.count),
                 t.self_us / static_cast<double>(t.count));
  }
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
