// Scalar reference cell kernel — the executable form of the contract in
// framerate_kernel.hpp.  Every vector variant is validated bitwise
// against this implementation, so keep it boring: the loops below ARE
// the specification (and are, verbatim, the DP inner loop this kernel
// was extracted from).

#include <algorithm>

#include "core/kernels/framerate_kernel.hpp"

namespace elpc::core::kernels {

namespace {

template <bool kOrdered>
std::size_t scalar_scan(const CellInputs& in,
                        FrameRateArena::Candidate* cand) {
  const std::size_t beam = in.beam;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in.edge_count; ++i) {
    const graph::Edge& e = in.edges[kOrdered ? in.order[i] : i];
    const graph::NodeId u = e.from;
    const std::uint32_t count = in.counts[u];
    if (count == 0) {
      continue;
    }
    const double mb_bw = in.input_mb / e.attr.bandwidth_mbps;
    if (kOrdered && kept == beam &&
        scan_exhausted(in, mb_bw, cand[beam - 1].bottleneck,
                       cand[beam - 1].sum)) {
      break;  // no narrower edge can place a candidate either
    }
    double transport = mb_bw;
    if (in.include_link_delay) {
      transport += e.attr.min_delay_s;
    }
    double best_bn = 0.0;
    double best_sum = 0.0;
    std::uint32_t best_slot = 0;
    bool found = false;
    for (std::uint32_t s = 0; s < count; ++s) {
      const std::size_t cell = u * beam + s;
      if (in.visited != nullptr && (in.visited[cell] & in.bit) != 0) {
        continue;  // node already consumed by this partial path
      }
      const double bn =
          std::max({in.bottleneck[cell], transport, in.comp});
      const double sum = (in.sum[cell] + transport) + in.comp;
      if (!found ||
          label_before(bn, sum, best_bn, best_sum, in.sum_tiebreak)) {
        found = true;
        best_bn = bn;
        best_sum = sum;
        best_slot = s;
      }
    }
    if (!found) {
      continue;
    }
    kept = insert_candidate(cand, kept, beam, best_bn, best_sum,
                            static_cast<std::uint32_t>(u), best_slot,
                            in.sum_tiebreak);
  }
  return kept;
}

std::size_t scalar_cell(const CellInputs& in,
                        FrameRateArena::Candidate* cand) {
  return in.order != nullptr ? scalar_scan<true>(in, cand)
                             : scalar_scan<false>(in, cand);
}

}  // namespace

CellKernelFn scalar_cell_kernel() { return &scalar_cell; }

}  // namespace elpc::core::kernels
