// Parity guarantees for the CSR + arena performance core (see
// src/core/README.md):
//
//  * min_delay must be BIT-IDENTICAL to the textbook Eq. 3 recursion —
//    the CSR switch and the scatter/gather sweeps reorder candidate
//    enumeration, and reordering a min over the same candidate multiset
//    must not change the value by even one ulp.
//  * the arena-based frame-rate DP at beam width 1 reproduces the
//    published heuristic's semantics: never better than the exhaustive
//    optimum, exactly optimal on most small instances.
//  * the parallel column sweep (when hardware parallelism exists) is
//    bit-identical to the serial sweep;
//  * dense solves reproduce recorded digests of their answers, so a
//    change to scan order, tie-breaking or pruning that moves any answer
//    fails here under every forced kernel (the CI kernel-parity job).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/elpc.hpp"
#include "core/exhaustive.hpp"
#include "core/kernels/framerate_kernel.hpp"
#include "graph/generators.hpp"
#include "mapping/evaluator.hpp"
#include "pipeline/generator.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace elpc::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using graph::NodeId;
using mapping::MapResult;
using mapping::Problem;

workload::Scenario random_instance(std::uint64_t seed, std::size_t modules,
                                   std::size_t nodes, std::size_t links) {
  util::Rng rng(seed);
  workload::Scenario s;
  s.name = "parity" + std::to_string(seed);
  s.pipeline = pipeline::random_pipeline(rng, modules, {});
  s.network = graph::random_connected_network(rng, nodes, links, {});
  s.source = 0;
  s.destination = nodes - 1;
  return s;
}

/// Textbook Eq. 3 recursion, deliberately independent of the adjacency
/// representation: iterates ALL ordered node pairs through find_link.
/// Any CSR/sweep reordering bug in the production DP shows up as a
/// bitwise difference against this.
double reference_min_delay(const Problem& problem) {
  const pipeline::CostModel model = problem.model();
  const graph::Network& net = *problem.network;
  const std::size_t n = problem.pipeline->module_count();
  const std::size_t k = net.node_count();
  std::vector<double> prev(k, kInf);
  std::vector<double> cur(k, kInf);
  prev[problem.source] = 0.0;
  for (std::size_t j = 1; j < n; ++j) {
    const double input_mb = problem.pipeline->input_mb(j);
    for (NodeId v = 0; v < k; ++v) {
      const double comp = model.computing_time(j, v);
      double best = prev[v] == kInf ? kInf : prev[v] + comp;
      for (NodeId u = 0; u < k; ++u) {
        if (prev[u] == kInf || u == v) {
          continue;
        }
        const auto link = net.find_link(u, v);
        if (!link.has_value()) {
          continue;
        }
        const double cand =
            prev[u] + model.transport_time(input_mb, *link) + comp;
        if (cand < best) {
          best = cand;
        }
      }
      cur[v] = best;
    }
    std::swap(prev, cur);
  }
  return prev[problem.destination];
}

TEST(DpParity, MinDelayBitIdenticalToReference) {
  for (std::uint64_t seed = 1000; seed < 1040; ++seed) {
    util::Rng rng(seed);
    const std::size_t nodes =
        4 + static_cast<std::size_t>(rng.uniform_int(0, 12));
    const std::size_t modules =
        3 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    const std::size_t links = std::max(
        nodes, static_cast<std::size_t>(0.5 * nodes * (nodes - 1)));
    const workload::Scenario s =
        random_instance(seed, modules, nodes, links);
    const Problem p = s.problem();
    const MapResult r = ElpcMapper().min_delay(p);
    const double expected = reference_min_delay(p);
    if (expected == kInf) {
      EXPECT_FALSE(r.feasible) << "seed " << seed;
      continue;
    }
    ASSERT_TRUE(r.feasible) << "seed " << seed;
    // Exact equality on purpose: same candidate multiset, same arithmetic
    // per candidate, so the minima must agree to the last bit.
    EXPECT_EQ(r.seconds, expected) << "seed " << seed;
  }
}

TEST(DpParity, MinDelayMappingStillEvaluatorExact) {
  for (std::uint64_t seed = 1100; seed < 1120; ++seed) {
    const workload::Scenario s = random_instance(seed, 6, 9, 40);
    const Problem p = s.problem();
    const MapResult r = ElpcMapper().min_delay(p);
    if (!r.feasible) {
      continue;
    }
    const mapping::Evaluation eval = mapping::evaluate_total_delay(p, r.mapping);
    ASSERT_TRUE(eval.feasible) << "seed " << seed;
    EXPECT_EQ(eval.seconds, r.seconds) << "seed " << seed;
  }
}

TEST(DpParity, BeamOneArenaDpNeverBeatsExhaustive) {
  ElpcOptions bare;
  bare.framerate_beam_width = 1;
  bare.framerate_sum_tiebreak = false;
  bare.framerate_local_search = false;
  const ElpcMapper plain(bare);
  std::size_t matched = 0;
  std::size_t comparable = 0;
  for (std::uint64_t seed = 1200; seed < 1260; ++seed) {
    const workload::Scenario s = random_instance(seed, 4, 7, 30);
    const Problem p = s.problem();
    const MapResult heur = plain.max_frame_rate(p);
    const MapResult exact = ExhaustiveMapper().max_frame_rate(p);
    if (heur.feasible) {
      // The heuristic only ever proposes real simple paths, so exhaustive
      // search must find at least as good a one.
      ASSERT_TRUE(exact.feasible) << "seed " << seed;
      EXPECT_GE(heur.seconds, exact.seconds * (1.0 - 1e-12))
          << "seed " << seed;
      const mapping::Evaluation eval = mapping::evaluate_bottleneck(
          p, heur.mapping, /*enforce_no_reuse=*/true);
      ASSERT_TRUE(eval.feasible) << "seed " << seed;
    }
    if (heur.feasible && exact.feasible) {
      ++comparable;
      if (heur.seconds <= exact.seconds * (1.0 + 1e-12)) {
        ++matched;
      }
    }
  }
  // "Extremely rare" misses (paper Section 3.1.2): the bare width-1
  // recursion must still be exactly optimal on the vast majority.
  ASSERT_GT(comparable, 40u);
  EXPECT_GE(static_cast<double>(matched), 0.85 * comparable);
}

TEST(DpParity, ParallelSweepBitIdenticalToSerial) {
  // Large enough to cross the parallel thresholds on multicore machines;
  // on single-core machines both configurations take the serial path and
  // the assertion is trivially exact either way.
  const workload::Scenario s = random_instance(77, 12, 160, 18000);
  const Problem p = s.problem();
  ElpcOptions serial;
  serial.parallel_sweep = false;
  const MapResult a = ElpcMapper(serial).min_delay(p);
  const MapResult b = ElpcMapper().min_delay(p);
  ASSERT_EQ(a.feasible, b.feasible);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.seconds, b.seconds);

  const MapResult fa = ElpcMapper(serial).max_frame_rate(p);
  const MapResult fb = ElpcMapper().max_frame_rate(p);
  ASSERT_EQ(fa.feasible, fb.feasible);
  if (fa.feasible) {
    EXPECT_EQ(fa.seconds, fb.seconds);
  }
}

TEST(DpParity, RepeatedCallsAreDeterministic) {
  // The thread_local arena is reused across calls; stale state from a
  // previous (larger) instance must never leak into a later run.
  const workload::Scenario big = random_instance(5, 8, 30, 400);
  const workload::Scenario small = random_instance(6, 4, 8, 30);
  const ElpcMapper mapper;
  const MapResult first = mapper.max_frame_rate(small.problem());
  (void)mapper.max_frame_rate(big.problem());
  const MapResult again = mapper.max_frame_rate(small.problem());
  ASSERT_EQ(first.feasible, again.feasible);
  if (first.feasible) {
    EXPECT_EQ(first.seconds, again.seconds);
    EXPECT_EQ(first.mapping.assignment(), again.mapping.assignment());
  }
}

/// Eq. 3 with the parent rule the `from`-ordered scan defined: a cell
/// keeps grouping on a tie with it, else the lowest in-neighbour id
/// among the minimal candidates.  Returns the mapping; counts the cells
/// whose minimum was tied with grouping or between two predecessors.
std::vector<NodeId> reference_min_delay_mapping(const Problem& problem,
                                                std::size_t& grouping_ties,
                                                std::size_t& edge_ties) {
  const pipeline::CostModel model = problem.model();
  const graph::Network& net = *problem.network;
  const std::size_t n = problem.pipeline->module_count();
  const std::size_t k = net.node_count();
  std::vector<double> prev(k, kInf);
  std::vector<double> cur(k, kInf);
  std::vector<NodeId> parent(n * k, graph::kInvalidNode);
  prev[problem.source] = 0.0;
  for (std::size_t j = 1; j < n; ++j) {
    const double input_mb = problem.pipeline->input_mb(j);
    for (NodeId v = 0; v < k; ++v) {
      const double comp = model.computing_time(j, v);
      double best = prev[v] == kInf ? kInf : prev[v] + comp;
      NodeId best_parent = v;
      std::size_t at_best = best == kInf ? 0 : 1;
      bool grouping_at_best = at_best == 1;
      for (NodeId u = 0; u < k; ++u) {
        const auto link = u == v ? std::nullopt : net.find_link(u, v);
        if (!link.has_value() || prev[u] == kInf) {
          continue;
        }
        const double cand =
            prev[u] + model.transport_time(input_mb, *link) + comp;
        if (cand < best) {
          best = cand;
          best_parent = u;
          at_best = 1;
          grouping_at_best = false;
        } else if (cand == best) {
          ++at_best;
        }
      }
      if (at_best > 1) {
        ++(grouping_at_best ? grouping_ties : edge_ties);
      }
      cur[v] = best;
      parent[j * k + v] = best_parent;
    }
    std::swap(prev, cur);
  }
  std::vector<NodeId> assignment(n, graph::kInvalidNode);
  assignment[n - 1] = problem.destination;
  for (std::size_t j = n - 1; j > 0; --j) {
    assignment[j - 1] = parent[j * k + assignment[j]];
  }
  return assignment;
}

TEST(DpParity, MinDelayTiesPinParentsLikeTheFromOrderedScan) {
  // Engineered first: a complete 20-node network (in-degree 19, so the
  // bandwidth-ordered gather runs) where every cost is a dyadic fraction
  // and sums round nowhere.  Module 1 costs 1/64 (1/32 on the slower
  // source), module 2 nothing, so after module 1 a node reached over a
  // 256 Mbps source link holds 5/256 (the minimum; node 1 is the seed),
  // over 128 Mbps 6/256.  In column 2:
  //  * into 10, predecessors 3 (5/256 + 2/256 on 128 Mbps) and 5
  //    (6/256 + 1/256 on 256 Mbps) tie at 7/256.  The bandwidth order
  //    meets 5 first; the tie order must pick 3;
  //  * into 12 the same tie between 4 and 5, where 4's lower bound
  //    5/256 + 2/256 EQUALS the incumbent: the scan must not stop there;
  //  * into 7, staying (6/256) ties predecessor 2 (5/256 + 1/256):
  //    grouping must win.
  // Every other link is 64 Mbps (4/256), so nothing else competes.
  {
    graph::Network net;
    const std::size_t k = 20;
    for (std::size_t v = 0; v < k; ++v) {
      net.add_node({"", v == 0 ? 0.5 : 1.0});
    }
    const auto bandwidth = [](NodeId u, NodeId v) {
      if (u == 0) {
        return v == 10 || v == 12 ? 1.0 : v == 5 || v == 7 ? 128.0 : 256.0;
      }
      if (v == 10) {
        return u == 3 ? 128.0 : u == 5 ? 256.0 : 64.0;
      }
      if (v == 12) {
        return u == 4 ? 128.0 : u == 5 ? 256.0 : 64.0;
      }
      return v == 7 && u == 2 ? 256.0 : 64.0;
    };
    for (NodeId u = 0; u < k; ++u) {
      for (NodeId v = 0; v < k; ++v) {
        if (u != v) {
          net.add_link(u, v, {bandwidth(u, v), 0.0});
        }
      }
    }
    const pipeline::Pipeline pipe({{"src", 0.0, 1.0},
                                   {"stage", 1.0 / 64.0, 1.0},
                                   {"sink", 0.0, 1.0}});
    pipeline::CostOptions cost;
    cost.include_link_delay = false;
    const auto solve = [&](NodeId destination) {
      return ElpcMapper().min_delay(Problem(pipe, net, 0, destination, cost));
    };
    const MapResult to10 = solve(10);
    ASSERT_TRUE(to10.feasible);
    EXPECT_EQ(to10.seconds, 7.0 / 256.0);
    EXPECT_EQ(to10.mapping.assignment(), (std::vector<NodeId>{0, 3, 10}));
    const MapResult to12 = solve(12);
    ASSERT_TRUE(to12.feasible);
    EXPECT_EQ(to12.seconds, 7.0 / 256.0);
    EXPECT_EQ(to12.mapping.assignment(), (std::vector<NodeId>{0, 4, 12}));
    const MapResult to7 = solve(7);
    ASSERT_TRUE(to7.feasible);
    EXPECT_EQ(to7.seconds, 6.0 / 256.0);
    EXPECT_EQ(to7.mapping.assignment(), (std::vector<NodeId>{0, 7, 7}));
  }
  // Then random ones against the reference recursion: complete 24-node
  // networks (every in-row long enough for the
  // bandwidth-ordered gather with its early exit) on two bandwidths, no
  // link delay, and zero-work stages.  Every cost is a small dyadic
  // fraction, so sums round nowhere: equal-cost predecessors (including
  // pairs on different bandwidths, which the bandwidth order visits in
  // another order than `from`) and grouping ties are everywhere.  The
  // parents — the whole mapping — must be the ones the `from`-ordered
  // scan picked.
  std::size_t grouping_ties = 0;
  std::size_t edge_ties = 0;
  for (std::uint64_t seed = 1300; seed < 1310; ++seed) {
    util::Rng rng(seed);
    graph::Network net;
    const std::size_t k = 24;
    for (std::size_t v = 0; v < k; ++v) {
      net.add_node({"", rng.uniform_int(0, 1) == 0 ? 1.0 : 2.0});
    }
    for (NodeId u = 0; u < k; ++u) {
      for (NodeId v = 0; v < k; ++v) {
        if (u != v) {
          net.add_link(u, v, {rng.uniform_int(0, 1) == 0 ? 128.0 : 256.0, 0.0});
        }
      }
    }
    std::vector<pipeline::ModuleSpec> modules(7);
    for (std::size_t j = 0; j < modules.size(); ++j) {
      modules[j].complexity = j == 0 || rng.uniform_int(0, 1) == 0 ? 0.0 : 0.5;
      modules[j].output_mb = rng.uniform_int(0, 1) == 0 ? 1.0 : 2.0;
    }
    pipeline::CostOptions cost;
    cost.include_link_delay = false;
    // A mapping shows only the parents along its own path.  Ending the
    // pipeline after every module, at every destination, puts each DP
    // cell's own parent choice at the end of some path.
    for (std::size_t n = 3; n <= modules.size(); ++n)
    for (NodeId destination = 1; destination < k; ++destination) {
      const pipeline::Pipeline pipe(std::vector<pipeline::ModuleSpec>(
          modules.begin(), modules.begin() + static_cast<std::ptrdiff_t>(n)));
      const Problem p(pipe, net, 0, destination, cost);
      const std::vector<NodeId> expected =
          reference_min_delay_mapping(p, grouping_ties, edge_ties);
      for (const bool parallel : {false, true}) {
        ElpcOptions options;
        options.parallel_sweep = parallel;
        const MapResult r = ElpcMapper(options).min_delay(p);
        ASSERT_TRUE(r.feasible) << "seed " << seed;
        EXPECT_EQ(r.seconds, reference_min_delay(p)) << "seed " << seed;
        EXPECT_EQ(r.mapping.assignment(), expected)
            << "seed " << seed << " destination " << destination;
      }
    }
  }
  // The instances really do tie, both ways.
  EXPECT_GT(grouping_ties, 10u);
  EXPECT_GT(edge_ties, 10u);
}

/// FNV-1a over the canonical bytes of one answer: the feasibility byte,
/// then (when feasible) the bit pattern of `seconds` and every assigned
/// node id, each as 8 little-endian bytes.
std::uint64_t answer_digest(std::uint64_t h, const MapResult& r) {
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto word = [&byte](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(w >> (8 * i)));
    }
  };
  byte(r.feasible ? 1 : 0);
  if (r.feasible) {
    word(std::bit_cast<std::uint64_t>(r.seconds));
    for (const NodeId v : r.mapping.assignment()) {
      word(static_cast<std::uint64_t>(v));
    }
  }
  return h;
}

/// Dense instance at the size the daemon's large-solve path sees.  With
/// `quantized`, every link is re-measured onto four bandwidths and three
/// delays, so equal-bandwidth in-edges and exactly tied candidates are
/// the common case rather than the exception.
workload::Scenario dense_instance(std::uint64_t seed, std::size_t nodes,
                                  std::size_t links, bool quantized) {
  workload::Scenario s = random_instance(seed, 8, nodes, links);
  if (quantized) {
    std::vector<graph::Edge> edges(s.network.out_edges_flat().begin(),
                                   s.network.out_edges_flat().end());
    std::uint64_t h = seed;
    for (const graph::Edge& e : edges) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      graph::LinkAttr attr;
      attr.bandwidth_mbps = 100.0 * static_cast<double>(1u << ((h >> 33) % 4));
      attr.min_delay_s = 0.001 * static_cast<double>((h >> 40) % 3);
      s.network.update_link(e.from, e.to, attr);
    }
  }
  return s;
}

TEST(DpParity, DenseSolvesMatchParentDigests) {
  struct Instance {
    std::uint64_t seed;
    std::size_t nodes;
    std::size_t links;
    bool quantized;
  };
  const Instance instances[] = {
      {4101, 136, 16384, false},
      {4102, 136, 16384, true},
      {4103, 150, 20000, true},
  };
  ElpcOptions bare;
  bare.framerate_beam_width = 1;
  bare.framerate_sum_tiebreak = false;
  bare.framerate_local_search = false;
  ElpcOptions wide;
  wide.framerate_beam_width = 9;
  // One digest per (instance, link-delay convention): min-delay, then
  // frame rate under the default, bare and wide options, folded in that
  // order.  Recorded from the from-ordered in-edge scan; they pin every
  // answer bit of the bandwidth-ordered scan with its early exits.
  const std::uint64_t expected[][2] = {
      {0xa2e81659dd751db3ULL, 0x8ad0350117971926ULL},
      {0x95506dde3658fca4ULL, 0x899fce3cfad93c92ULL},
      {0x24ce541d798e3a50ULL, 0x83ebab6506f9e3e6ULL},
  };
  std::string got_table;
  for (std::size_t i = 0; i < std::size(instances); ++i) {
    const Instance& in = instances[i];
    const workload::Scenario s =
        dense_instance(in.seed, in.nodes, in.links, in.quantized);
    for (const bool delay : {false, true}) {
      pipeline::CostOptions cost;
      cost.include_link_delay = delay;
      const Problem p = s.problem(cost);
      // kAuto (what ELPC_FORCE_KERNEL steers) first, then every kernel
      // this process can run by name.
      std::vector<kernels::Kind> kinds{kernels::Kind::kAuto};
      for (const kernels::Kind kind : kernels::available_kernels()) {
        kinds.push_back(kind);
      }
      for (const kernels::Kind kind : kinds) {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        h = answer_digest(h, ElpcMapper().min_delay(p));
        for (ElpcOptions options : {ElpcOptions{}, bare, wide}) {
          options.framerate_kernel = kind;
          h = answer_digest(h, ElpcMapper(options).max_frame_rate(p));
        }
        if (kind == kernels::Kind::kAuto) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                        static_cast<unsigned long long>(h));
          got_table += (delay ? ", " : "{") + std::string(buf) +
                       (delay ? "},\n" : "");
        }
        EXPECT_EQ(h, expected[i][delay ? 1 : 0])
            << "instance " << i << " delay=" << delay
            << " kernel=" << kernels::kind_name(kind);
      }
    }
  }
  if (HasFailure()) {
    ADD_FAILURE() << "answer digests moved; under kAuto they read:\n"
                  << got_table;
  }
}

}  // namespace
}  // namespace elpc::core
