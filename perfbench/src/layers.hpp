#pragma once
// Per-layer measurements by direct calls into each layer's public
// functions, on the workload's own inputs.  Every call is recorded as a
// span (parent "layers"), so the traced run's timeline shows them.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerReport {
  /// Metric name -> value (units fixed by BENCHMARK.json).
  std::map<std::string, double> metrics;
  /// Direct checkpoint re-solve totals, for the daemon cross-check.
  std::size_t resolves = 0;
  std::size_t resolve_hits = 0;
  std::size_t columns_reused = 0;
  std::size_t columns_total = 0;
  /// Mean wire_format cost of one job's result table (encode+decode), µs.
  double wire_job_us = 0.0;
};

/// `batches` per updated network are replayed (after the warm-up batch);
/// `frames` are the JSON lines of each job of a replay (util.json_us).
[[nodiscard]] LayerReport measure_layers(
    const Workload& wl, std::size_t batches,
    const std::vector<std::vector<std::string>>& frames,
    const std::string& socket_path, SpanLog& spans);

}  // namespace perfbench
