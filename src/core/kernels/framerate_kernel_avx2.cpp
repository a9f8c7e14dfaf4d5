// AVX2 cell kernel — scans each predecessor row 4 label slots at a
// time.  Built with -mavx2 applied to THIS file only (see the ELPC_SIMD
// block in CMakeLists.txt); without that flag the file compiles to a
// nullptr stub and dispatch falls back to the scalar reference.
//
// Bit-identity with the scalar kernel rests on:
//   * per-lane arithmetic is the same ops in the same order —
//     max(max(bn, t), c) and (sum + t) + c — and the transport division
//     stays scalar, exactly as the reference computes it;
//   * row-winner selection is a pairwise blend tournament that keeps
//     the LOWER-indexed operand unless the higher-indexed one is
//     strictly better, reproducing the scalar left-to-right scan's
//     lowest-slot-on-tie rule (including the sum tiebreak) in one pass;
//   * the shared insert_candidate helper does the top-beam insertion,
//     so candidate ordering cannot diverge from the reference.
//
// Speed comes from three structural choices: per-cell constants are
// broadcast once per cell (not per edge); every load is full-width and
// unconditional (the arena's kVectorPad over-read allowance, and the
// word-major visited plane making the check a single contiguous load);
// and once the candidate array is full, a chunk in which no lane beats
// the worst kept candidate under the full (key, sum) criterion — or ties
// it exactly, when the edge's node id is below the worst one's — is
// dropped before the tournament — the contract's explicit allowance,
// since the insertion would provably reject anything the chunk could
// produce.  The worst-candidate test must include the sum: bottleneck
// keys tie constantly in this DP, and a key-only (strict) test was
// measured to let ~half of all chunks through.

#include "core/kernels/framerate_kernel.hpp"

#if defined(ELPC_KERNEL_AVX2)

#include <immintrin.h>

#include <array>
#include <limits>

namespace elpc::core::kernels {

namespace {

/// kLaneMask[b] has lane l all-ones iff bit l of b is set.
constexpr auto kLaneMask = [] {
  std::array<std::array<std::uint64_t, 4>, 16> table{};
  for (unsigned b = 0; b < 16; ++b) {
    for (unsigned l = 0; l < 4; ++l) {
      table[b][l] = ((b >> l) & 1u) != 0 ? ~std::uint64_t{0} : 0u;
    }
  }
  return table;
}();

/// candidate_before as a per-lane mask: does a beat b?  `tb` is all-ones
/// when the sum tiebreak is on, all-zeros otherwise.
inline __m256d lane_before(__m256d bn_a, __m256d sm_a, __m256d bn_b,
                           __m256d sm_b, __m256d tb) {
  const __m256d lt = _mm256_cmp_pd(bn_a, bn_b, _CMP_LT_OQ);
  const __m256d eq = _mm256_cmp_pd(bn_a, bn_b, _CMP_EQ_OQ);
  const __m256d slt = _mm256_cmp_pd(sm_a, sm_b, _CMP_LT_OQ);
  return _mm256_or_pd(lt, _mm256_and_pd(eq, _mm256_and_pd(tb, slt)));
}

/// Per-lane "not worse": a beats b or ties it exactly — equal keys and,
/// when the sum tiebreak is on, equal sums.  `ntb` is the complement of
/// `tb`.
inline __m256d lane_not_after(__m256d bn_a, __m256d sm_a, __m256d bn_b,
                              __m256d sm_b, __m256d ntb) {
  const __m256d lt = _mm256_cmp_pd(bn_a, bn_b, _CMP_LT_OQ);
  const __m256d eq = _mm256_cmp_pd(bn_a, bn_b, _CMP_EQ_OQ);
  const __m256d sle = _mm256_cmp_pd(sm_a, sm_b, _CMP_LE_OQ);
  return _mm256_or_pd(lt, _mm256_and_pd(eq, _mm256_or_pd(ntb, sle)));
}

template <bool kOrdered>
std::size_t avx2_scan(const CellInputs& in, FrameRateArena::Candidate* cand) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t beam = in.beam;
  const __m256d vcomp = _mm256_set1_pd(in.comp);
  const __m256d vinf = _mm256_set1_pd(kInf);
  const __m256i vbit = _mm256_set1_epi64x(static_cast<long long>(in.bit));
  const __m256d tb = _mm256_castsi256_pd(
      _mm256_set1_epi64x(-static_cast<long long>(in.sum_tiebreak)));
  const __m256d ntb = _mm256_castsi256_pd(
      _mm256_set1_epi64x(-static_cast<long long>(!in.sum_tiebreak)));
  const __m256d idx0 = _mm256_castsi256_pd(_mm256_setr_epi64x(0, 1, 2, 3));

  std::size_t kept = 0;
  // The worst kept candidate, as scalars for the exit and tie tests and
  // as splats for the per-chunk reject test; meaningful only once
  // kept == beam.
  double worst_bn = 0.0;
  double worst_sum = 0.0;
  std::uint32_t worst_node = 0;
  __m256d vworst_bn = _mm256_setzero_pd();
  __m256d vworst_sum = _mm256_setzero_pd();
  for (std::size_t i = 0; i < in.edge_count; ++i) {
    const graph::Edge& e = in.edges[kOrdered ? in.order[i] : i];
    const graph::NodeId u = e.from;
    const std::uint32_t count = in.counts[u];
    if (count == 0) {
      continue;
    }
    const double mb_bw = in.input_mb / e.attr.bandwidth_mbps;
    const bool full = kept == beam;
    if (kOrdered && full &&
        scan_exhausted(in, mb_bw, worst_bn, worst_sum)) {
      break;  // no narrower edge can place a candidate either
    }
    // An exact (key, sum) tie with the worst kept candidate still enters
    // when this node id is lower (candidate_before).  On a row sorted by
    // `from` a stored-order scan never sees that.
    const bool ties_enter = u < worst_node;
    double transport = mb_bw;
    if (in.include_link_delay) {
      transport += e.attr.min_delay_s;
    }
    const __m256d vt = _mm256_set1_pd(transport);
    const std::size_t row = u * beam;

    double row_bn = 0.0;
    double row_sum = 0.0;
    std::int32_t row_slot = -1;
    for (std::size_t base = 0; base < count; base += 4) {
      const std::size_t lanes = count - base < 4 ? count - base : 4;
      unsigned b = lanes == 4 ? 0xFu : (1u << lanes) - 1u;
      if (in.visited != nullptr) {
        const __m256i words = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in.visited + row + base));
        const __m256i unvisited = _mm256_cmpeq_epi64(
            _mm256_and_si256(words, vbit), _mm256_setzero_si256());
        b &= static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(unvisited)));
      }
      if (b == 0) {
        continue;
      }
      const __m256d valid = _mm256_loadu_pd(
          reinterpret_cast<const double*>(kLaneMask[b].data()));
      const __m256d bn_in = _mm256_loadu_pd(in.bottleneck + row + base);
      const __m256d sum_in = _mm256_loadu_pd(in.sum + row + base);
      const __m256d key = _mm256_max_pd(_mm256_max_pd(bn_in, vt), vcomp);
      const __m256d sm = _mm256_add_pd(_mm256_add_pd(sum_in, vt), vcomp);
      // Dead lanes go to +inf so they can never win a strict comparison
      // (a valid lane's key is finite by contract).
      const __m256d bn_m = _mm256_blendv_pd(vinf, key, valid);
      const __m256d sm_m = _mm256_blendv_pd(vinf, sm, valid);
      if (full) {
        // Fast reject under the full insertion criterion: a chunk none
        // of whose lanes beats the worst kept candidate contributes
        // nothing, unless ties enter and one of its lanes ties it.
        const auto beats = [&] {
          return _mm256_movemask_pd(
                     lane_before(bn_m, sm_m, vworst_bn, vworst_sum, tb)) != 0;
        };
        const auto beats_or_ties = [&] {
          return _mm256_movemask_pd(lane_not_after(
                     bn_m, sm_m, vworst_bn, vworst_sum, ntb)) != 0;
        };
        // Ties enter on about half the edges of an ordered scan, so it
        // tests "beats or ties" first and the strict test only for the
        // few chunks that pass.  A stored-order scan of a row sorted by
        // `from` never lets ties enter: the strict test alone decides
        // (on an unsorted row such an edge is simply not pre-filtered).
        const bool reject =
            kOrdered ? !beats_or_ties() || (!ties_enter && !beats())
                     : !ties_enter && !beats();
        if (reject) {
          continue;
        }
      }
      // Two-step blend tournament collapsing the chunk into lane 0;
      // each step keeps the lower-indexed operand unless the higher-
      // indexed one is strictly better, so an exact key tie resolves to
      // the lowest slot — the scalar scan's semantics — without a
      // second reduction pass for the sum tiebreak.
      __m256d bn_hi = _mm256_permute_pd(bn_m, 0b0101);
      __m256d sm_hi = _mm256_permute_pd(sm_m, 0b0101);
      __m256d idx_hi = _mm256_permute_pd(idx0, 0b0101);
      __m256d take = lane_before(bn_hi, sm_hi, bn_m, sm_m, tb);
      __m256d bn_r = _mm256_blendv_pd(bn_m, bn_hi, take);
      __m256d sm_r = _mm256_blendv_pd(sm_m, sm_hi, take);
      __m256d idx_r = _mm256_blendv_pd(idx0, idx_hi, take);
      bn_hi = _mm256_permute2f128_pd(bn_r, bn_r, 1);
      sm_hi = _mm256_permute2f128_pd(sm_r, sm_r, 1);
      idx_hi = _mm256_permute2f128_pd(idx_r, idx_r, 1);
      take = lane_before(bn_hi, sm_hi, bn_r, sm_r, tb);
      bn_r = _mm256_blendv_pd(bn_r, bn_hi, take);
      sm_r = _mm256_blendv_pd(sm_r, sm_hi, take);
      idx_r = _mm256_blendv_pd(idx_r, idx_hi, take);
      const double cbn = _mm_cvtsd_f64(_mm256_castpd256_pd128(bn_r));
      const double csm = _mm_cvtsd_f64(_mm256_castpd256_pd128(sm_r));
      const auto lane = static_cast<std::size_t>(_mm_cvtsi128_si64(
          _mm256_castsi256_si128(_mm256_castpd_si256(idx_r))));
      if (row_slot < 0 || cbn < row_bn ||
          (cbn == row_bn && in.sum_tiebreak && csm < row_sum)) {
        row_bn = cbn;
        row_sum = csm;
        row_slot = static_cast<std::int32_t>(base + lane);
      }
    }
    if (row_slot < 0) {
      continue;
    }
    kept = insert_candidate(cand, kept, beam, row_bn, row_sum,
                            static_cast<std::uint32_t>(u),
                            static_cast<std::uint32_t>(row_slot),
                            in.sum_tiebreak);
    if (kept == beam) {
      worst_bn = cand[beam - 1].bottleneck;
      worst_sum = cand[beam - 1].sum;
      worst_node = cand[beam - 1].node;
      vworst_bn = _mm256_set1_pd(worst_bn);
      vworst_sum = _mm256_set1_pd(worst_sum);
    }
  }
  return kept;
}

std::size_t avx2_cell(const CellInputs& in, FrameRateArena::Candidate* cand) {
  return in.order != nullptr ? avx2_scan<true>(in, cand)
                             : avx2_scan<false>(in, cand);
}

}  // namespace

CellKernelFn avx2_cell_kernel() { return &avx2_cell; }

}  // namespace elpc::core::kernels

#else  // !ELPC_KERNEL_AVX2

namespace elpc::core::kernels {

CellKernelFn avx2_cell_kernel() { return nullptr; }

}  // namespace elpc::core::kernels

#endif
