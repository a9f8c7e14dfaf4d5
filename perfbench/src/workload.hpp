#pragma once
// Workload definitions and the seeded input generator.
//
// A workload is a fixed traffic mix: the registered networks, the
// distinct solve problems a closed-loop job stream cycles through, the
// subscriptions installed at setup, and the link-update batches an
// open-loop updater sends.  Everything is drawn from one seed; the
// daemon only ever sees the generated inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/network.hpp"
#include "service/batch_engine.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  // ---- topology ----
  std::size_t networks = 1;
  std::size_t min_nodes = 8;
  std::size_t max_nodes = 8;
  /// Links per network: uniform in [min_link_factor, max_link_factor]
  /// times nodes * (nodes - 1), at least `min_links`.
  double min_link_factor = 0.3;
  double max_link_factor = 0.6;
  std::size_t min_links = 0;
  // ---- jobs ----
  std::size_t min_modules = 4;
  std::size_t max_modules = 5;
  std::size_t problems_per_network = 8;
  // ---- daemon ----
  /// Engine pool threads.  With the IO worker, the dispatcher (busy when
  /// jobs are short) and the one load-generator thread, the busy
  /// threads stay within the machine's 4 CPUs.
  std::size_t engine_threads = 2;
  // ---- transport ----
  bool tcp = false;
  int protocol = 1;
  /// Closed-loop depth: connections, each with one job in flight.
  std::size_t connections = 4;
  // ---- link updates ----
  /// Whether the timed window runs the open-loop updaters (the other
  /// workloads still generate batches: the traced run's update probe
  /// replays them against the same networks).
  bool updates_in_window = false;
  std::size_t framerate_subs_per_network = 2;
  std::size_t delay_subs_per_network = 1;
  /// Links touched by a narrow batch (incremental path).
  std::size_t narrow_links = 4;
  /// Batches generated per network for the update probe of workloads
  /// whose window sends none.
  std::size_t probe_batches = 20;
};

/// Open-loop batch rate of each network's updater.
inline constexpr double kBatchesPerSecond = 8.0;
/// Every kWideEvery-th batch is wide: it touches links into
/// kWideNodeShare of the nodes, above the DP's
/// incremental_max_dirty_fraction (0.25), so those re-solves fall back
/// to a full solve.
inline constexpr std::size_t kWideEvery = 5;
inline constexpr double kWideNodeShare = 0.4;

/// The three named workloads (names are cited by later changes).
[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

struct Workload {
  WorkloadSpec spec;
  std::vector<std::pair<std::string, elpc::graph::Network>> networks;
  /// Distinct unsubscribed problems the job stream cycles through.
  std::vector<elpc::service::SolveJob> problems;
  /// Closed-loop op stream: problem index of the i-th job issued.
  std::vector<std::uint32_t> job_stream;
  /// Subscribed jobs (resolve_on_update), installed in order.
  std::vector<elpc::service::SolveJob> subscriptions;
  /// Per network: the update batches its updater sends, in order.
  std::vector<std::vector<std::vector<elpc::graph::LinkUpdate>>> batches;
  /// Per network: one extra batch applied during warm-up.
  std::vector<std::vector<elpc::graph::LinkUpdate>> warmup_batches;
  /// FNV-1a over the serialized inputs (networks, problems, job stream,
  /// subscriptions, batches): same seed, same hash.
  std::uint64_t hash = 0;
};

/// Batches each network's updater sends in a window of `seconds`.
[[nodiscard]] std::size_t batches_per_window(double seconds);

/// Generates the workload's inputs for `seed`; `window_seconds` sizes the
/// update schedule (batches_per_window per network).
[[nodiscard]] Workload generate(const WorkloadSpec& spec, std::uint64_t seed,
                                double window_seconds);

}  // namespace perfbench
