// AVX-512F cell kernel — scans each predecessor row 8 label slots at a
// time using mask registers (the validity bits ARE the __mmask8; no
// blend table needed).  Built with -mavx512f applied to THIS file only;
// compiles to a nullptr stub otherwise.  The structure and bit-identity
// strategy mirror the AVX2 variant: identical per-lane arithmetic
// order, scalar transport division, a lowest-index-on-tie blend
// tournament, the shared insert_candidate helper, per-cell constant
// hoisting, full-width loads under the arena's kVectorPad allowance (with the
// word-major visited plane making the check one contiguous load), and
// the full-candidate-array fast reject the contract allows, under the
// full (key, sum) criterion — see the AVX2 variant's notes.

#include "core/kernels/framerate_kernel.hpp"

#if defined(ELPC_KERNEL_AVX512)

#include <immintrin.h>

#include <limits>

namespace elpc::core::kernels {

namespace {

/// candidate_before as a lane mask: does a beat b?  `tb` selects
/// whether the sum tiebreak participates.
inline __mmask8 lane_before(__m512d bn_a, __m512d sm_a, __m512d bn_b,
                            __m512d sm_b, __mmask8 tb) {
  const __mmask8 lt = _mm512_cmp_pd_mask(bn_a, bn_b, _CMP_LT_OQ);
  const __mmask8 eq = _mm512_cmp_pd_mask(bn_a, bn_b, _CMP_EQ_OQ);
  const __mmask8 slt = _mm512_cmp_pd_mask(sm_a, sm_b, _CMP_LT_OQ);
  return static_cast<__mmask8>(lt | (eq & tb & slt));
}

/// Per-lane "not worse": a beats b or ties it exactly — equal keys and,
/// when the sum tiebreak is on, equal sums.
inline __mmask8 lane_not_after(__m512d bn_a, __m512d sm_a, __m512d bn_b,
                               __m512d sm_b, __mmask8 tb) {
  const __mmask8 lt = _mm512_cmp_pd_mask(bn_a, bn_b, _CMP_LT_OQ);
  const __mmask8 eq = _mm512_cmp_pd_mask(bn_a, bn_b, _CMP_EQ_OQ);
  const __mmask8 sle = _mm512_cmp_pd_mask(sm_a, sm_b, _CMP_LE_OQ);
  return static_cast<__mmask8>(lt | (eq & static_cast<__mmask8>(~tb | sle)));
}

template <bool kOrdered>
std::size_t avx512_scan(const CellInputs& in, FrameRateArena::Candidate* cand) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t beam = in.beam;
  const __m512d vcomp = _mm512_set1_pd(in.comp);
  const __m512d vinf = _mm512_set1_pd(kInf);
  const __m512i vbit = _mm512_set1_epi64(static_cast<long long>(in.bit));
  const auto tb = static_cast<__mmask8>(in.sum_tiebreak ? 0xFFu : 0u);
  const __m512i idx0 = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);

  std::size_t kept = 0;
  // The worst kept candidate, as scalars for the exit and tie tests and
  // as splats for the per-chunk reject test; meaningful only once
  // kept == beam.
  double worst_bn = 0.0;
  double worst_sum = 0.0;
  std::uint32_t worst_node = 0;
  __m512d vworst_bn = _mm512_setzero_pd();
  __m512d vworst_sum = _mm512_setzero_pd();
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
    const __m512d vt = _mm512_set1_pd(transport);
    const std::size_t row = u * beam;

    double row_bn = 0.0;
    double row_sum = 0.0;
    std::int32_t row_slot = -1;
    for (std::size_t base = 0; base < count; base += 8) {
      const std::size_t lanes = count - base < 8 ? count - base : 8;
      unsigned b = lanes == 8 ? 0xFFu : (1u << lanes) - 1u;
      if (in.visited != nullptr) {
        const __m512i words = _mm512_loadu_si512(in.visited + row + base);
        const __mmask8 hit = _mm512_test_epi64_mask(words, vbit);
        b &= static_cast<unsigned>(static_cast<std::uint8_t>(~hit));
      }
      if (b == 0) {
        continue;
      }
      const auto valid = static_cast<__mmask8>(b);
      const __m512d bn_in = _mm512_loadu_pd(in.bottleneck + row + base);
      const __m512d sum_in = _mm512_loadu_pd(in.sum + row + base);
      const __m512d key = _mm512_max_pd(_mm512_max_pd(bn_in, vt), vcomp);
      const __m512d sm = _mm512_add_pd(_mm512_add_pd(sum_in, vt), vcomp);
      // Dead lanes go to +inf so they can never win a strict comparison
      // (a valid lane's key is finite by contract).
      const __m512d bn_m = _mm512_mask_blend_pd(valid, vinf, key);
      const __m512d sm_m = _mm512_mask_blend_pd(valid, vinf, sm);
      if (full) {
        // Fast reject under the full insertion criterion: a chunk none
        // of whose lanes beats the worst kept candidate contributes
        // nothing, unless ties enter and one of its lanes ties it.
        const auto beats = [&] {
          return lane_before(bn_m, sm_m, vworst_bn, vworst_sum, tb) != 0;
        };
        const auto beats_or_ties = [&] {
          return lane_not_after(bn_m, sm_m, vworst_bn, vworst_sum, tb) != 0;
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
      // Three-step blend tournament collapsing the chunk into lane 0;
      // each step keeps the lower-indexed operand unless the higher-
      // indexed one is strictly better, so an exact key tie resolves to
      // the lowest slot — the scalar scan's semantics — without a
      // second reduction pass for the sum tiebreak.
      __m512d bn_r = bn_m;
      __m512d sm_r = sm_m;
      __m512i idx_r = idx0;
      for (const int shift : {1, 2, 4}) {
        __m512d bn_hi;
        __m512d sm_hi;
        __m512i idx_hi;
        if (shift == 1) {
          bn_hi = _mm512_permute_pd(bn_r, 0b01010101);
          sm_hi = _mm512_permute_pd(sm_r, 0b01010101);
          idx_hi = _mm512_castpd_si512(
              _mm512_permute_pd(_mm512_castsi512_pd(idx_r), 0b01010101));
        } else if (shift == 2) {
          bn_hi = _mm512_shuffle_f64x2(bn_r, bn_r, _MM_SHUFFLE(2, 3, 0, 1));
          sm_hi = _mm512_shuffle_f64x2(sm_r, sm_r, _MM_SHUFFLE(2, 3, 0, 1));
          idx_hi = _mm512_shuffle_i64x2(idx_r, idx_r,
                                        _MM_SHUFFLE(2, 3, 0, 1));
        } else {
          bn_hi = _mm512_shuffle_f64x2(bn_r, bn_r, _MM_SHUFFLE(1, 0, 3, 2));
          sm_hi = _mm512_shuffle_f64x2(sm_r, sm_r, _MM_SHUFFLE(1, 0, 3, 2));
          idx_hi = _mm512_shuffle_i64x2(idx_r, idx_r,
                                        _MM_SHUFFLE(1, 0, 3, 2));
        }
        const __mmask8 take = lane_before(bn_hi, sm_hi, bn_r, sm_r, tb);
        bn_r = _mm512_mask_blend_pd(take, bn_r, bn_hi);
        sm_r = _mm512_mask_blend_pd(take, sm_r, sm_hi);
        idx_r = _mm512_mask_blend_epi64(take, idx_r, idx_hi);
      }
      const double cbn = _mm_cvtsd_f64(_mm512_castpd512_pd128(bn_r));
      const double csm = _mm_cvtsd_f64(_mm512_castpd512_pd128(sm_r));
      const auto lane = static_cast<std::size_t>(
          _mm_cvtsi128_si64(_mm512_castsi512_si128(idx_r)));
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
      vworst_bn = _mm512_set1_pd(worst_bn);
      vworst_sum = _mm512_set1_pd(worst_sum);
    }
  }
  return kept;
}

std::size_t avx512_cell(const CellInputs& in, FrameRateArena::Candidate* cand) {
  return in.order != nullptr ? avx512_scan<true>(in, cand)
                             : avx512_scan<false>(in, cand);
}

}  // namespace

CellKernelFn avx512_cell_kernel() { return &avx512_cell; }

}  // namespace elpc::core::kernels

#else  // !ELPC_KERNEL_AVX512

namespace elpc::core::kernels {

CellKernelFn avx512_cell_kernel() { return nullptr; }

}  // namespace elpc::core::kernels

#endif
