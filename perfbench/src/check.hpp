#pragma once
// Correctness gate, run after the timed window: every answer the daemon
// gave is compared, byte for byte, with a direct solve by a scratch
// (non-incremental) BatchEngine on the revision the answer names.

#include <cstddef>
#include <vector>

#include "loadgen.hpp"
#include "workload.hpp"

namespace perfbench {

struct CheckReport {
  /// Distinct (problem or subscription, revision) answers checked.
  std::size_t keys = 0;
  /// Ops whose answer differed from the direct solve.
  std::size_t failed_ops = 0;
};

/// `applied[n]` is how many batches network n received (the warm-up
/// batch first, then Workload::batches[n] in order): revision r of n is
/// the registered network plus its first r batches.
[[nodiscard]] CheckReport check_answers(const Workload& wl,
                                        const AnswerBook& book,
                                        const std::vector<std::uint64_t>& applied);

}  // namespace perfbench
