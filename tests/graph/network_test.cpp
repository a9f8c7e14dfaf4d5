#include "graph/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace elpc::graph {
namespace {

Network two_nodes() {
  Network net;
  net.add_node({"a", 2.0});
  net.add_node({"b", 3.0});
  return net;
}

TEST(Network, AddNodeAssignsDenseIds) {
  Network net;
  EXPECT_EQ(net.add_node({"x", 1.0}), 0u);
  EXPECT_EQ(net.add_node({"y", 1.0}), 1u);
  EXPECT_EQ(net.node_count(), 2u);
}

TEST(Network, EmptyNameGetsDefault) {
  Network net;
  const NodeId id = net.add_node({"", 1.0});
  EXPECT_EQ(net.node(id).name, "node0");
}

TEST(Network, NodeAttributesStored) {
  Network net = two_nodes();
  EXPECT_EQ(net.node(0).name, "a");
  EXPECT_DOUBLE_EQ(net.node(1).processing_power, 3.0);
}

TEST(Network, RejectsNonPositivePower) {
  Network net;
  EXPECT_THROW(net.add_node({"bad", 0.0}), std::invalid_argument);
  EXPECT_THROW(net.add_node({"bad", -1.0}), std::invalid_argument);
}

TEST(Network, NodeOutOfRangeThrows) {
  Network net = two_nodes();
  EXPECT_THROW((void)net.node(2), std::invalid_argument);
}

TEST(Network, AddLinkIsDirected) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.001});
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_FALSE(net.has_link(1, 0));
  EXPECT_EQ(net.link_count(), 1u);
}

TEST(Network, LinkAttributesStored) {
  Network net = two_nodes();
  net.add_link(0, 1, {250.0, 0.002});
  EXPECT_DOUBLE_EQ(net.link(0, 1).bandwidth_mbps, 250.0);
  EXPECT_DOUBLE_EQ(net.link(0, 1).min_delay_s, 0.002);
}

TEST(Network, DuplexLinkAddsBothDirections) {
  Network net = two_nodes();
  net.add_duplex_link(0, 1, {100.0, 0.0});
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_TRUE(net.has_link(1, 0));
  EXPECT_EQ(net.link_count(), 2u);
}

TEST(Network, RejectsSelfLoops) {
  Network net = two_nodes();
  EXPECT_THROW(net.add_link(0, 0, {100.0, 0.0}), std::invalid_argument);
}

TEST(Network, RejectsDuplicateLinks) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  EXPECT_THROW(net.add_link(0, 1, {200.0, 0.0}), std::invalid_argument);
}

TEST(Network, RejectsBadLinkAttributes) {
  Network net = two_nodes();
  EXPECT_THROW(net.add_link(0, 1, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.add_link(0, 1, {100.0, -0.1}), std::invalid_argument);
}

TEST(Network, RejectsUnknownEndpoints) {
  Network net = two_nodes();
  EXPECT_THROW(net.add_link(0, 5, {100.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(net.add_link(5, 0, {100.0, 0.0}), std::invalid_argument);
}

TEST(Network, MissingLinkLookupThrows) {
  Network net = two_nodes();
  EXPECT_THROW((void)net.link(0, 1), std::out_of_range);
}

TEST(Network, FindLinkReturnsOptional) {
  Network net = two_nodes();
  EXPECT_FALSE(net.find_link(0, 1).has_value());
  net.add_link(0, 1, {123.0, 0.0});
  ASSERT_TRUE(net.find_link(0, 1).has_value());
  EXPECT_DOUBLE_EQ(net.find_link(0, 1)->bandwidth_mbps, 123.0);
}

TEST(Network, AdjacencyListsTrackLinks) {
  Network net;
  for (int i = 0; i < 4; ++i) {
    net.add_node({});
  }
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(0, 2, {100.0, 0.0});
  net.add_link(3, 0, {100.0, 0.0});
  EXPECT_EQ(net.out_edges(0).size(), 2u);
  EXPECT_EQ(net.in_edges(0).size(), 1u);
  EXPECT_EQ(net.in_edges(1).size(), 1u);
  EXPECT_EQ(net.out_edges(1).size(), 0u);
  EXPECT_EQ(net.in_edges(0)[0].from, 3u);
  EXPECT_EQ(net.out_edges(0)[1].to, 2u);
}

TEST(Network, MeanBandwidth) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(1, 0, {300.0, 0.0});
  EXPECT_DOUBLE_EQ(net.mean_bandwidth_mbps(), 200.0);
}

TEST(Network, MeanBandwidthThrowsWithoutLinks) {
  Network net = two_nodes();
  EXPECT_THROW((void)net.mean_bandwidth_mbps(), std::logic_error);
}

TEST(Network, ValidatePassesOnWellFormedGraph) {
  Network net = two_nodes();
  net.add_duplex_link(0, 1, {100.0, 0.001});
  EXPECT_NO_THROW(net.validate());
}

TEST(Network, FinalizeIsLazyAndIdempotent) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  EXPECT_FALSE(net.finalized());
  EXPECT_EQ(net.out_edges(0).size(), 1u);  // query triggers finalize
  EXPECT_TRUE(net.finalized());
  net.finalize();  // idempotent
  EXPECT_TRUE(net.finalized());
}

TEST(Network, MutationInvalidatesCsrAndRebuilds) {
  Network net = two_nodes();
  net.add_link(0, 1, {100.0, 0.0});
  EXPECT_EQ(net.out_edges(0).size(), 1u);
  const NodeId c = net.add_node({"c", 1.0});
  EXPECT_FALSE(net.finalized());
  net.add_link(0, c, {50.0, 0.0});
  EXPECT_EQ(net.out_edges(0).size(), 2u);  // rebuilt view sees both links
  EXPECT_EQ(net.in_edges(c).size(), 1u);
  EXPECT_NO_THROW(net.validate());
}

TEST(Network, AdjacencySpansSortedByNeighbor) {
  Network net;
  for (int i = 0; i < 5; ++i) {
    net.add_node({});
  }
  // Insert out of order; spans must come back sorted by neighbor id.
  net.add_link(0, 4, {100.0, 0.0});
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(0, 3, {100.0, 0.0});
  net.add_link(2, 1, {100.0, 0.0});
  const auto out = net.out_edges(0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].to, 1u);
  EXPECT_EQ(out[1].to, 3u);
  EXPECT_EQ(out[2].to, 4u);
  const auto in = net.in_edges(1);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0].from, 0u);
  EXPECT_EQ(in[1].from, 2u);
}

TEST(Network, DegreeAccessors) {
  Network net;
  for (int i = 0; i < 3; ++i) {
    net.add_node({});
  }
  net.add_link(0, 1, {100.0, 0.0});
  net.add_link(0, 2, {100.0, 0.0});
  net.add_link(1, 2, {100.0, 0.0});
  EXPECT_EQ(net.out_degree(0), 2u);
  EXPECT_EQ(net.in_degree(2), 2u);
  EXPECT_EQ(net.out_degree(2), 0u);
}

TEST(Network, FlatCsrViewsMatchPerRowSpans) {
  Network net;
  for (int i = 0; i < 6; ++i) {
    net.add_node({});
  }
  net.add_link(0, 1, {10.0, 0.0});
  net.add_link(2, 1, {20.0, 0.0});
  net.add_link(1, 5, {30.0, 0.0});
  net.add_link(4, 5, {40.0, 0.0});
  const auto flat = net.in_edges_flat();
  const auto off = net.in_row_offsets();
  ASSERT_EQ(off.size(), net.node_count() + 1);
  ASSERT_EQ(flat.size(), net.link_count());
  for (NodeId v = 0; v < net.node_count(); ++v) {
    const auto row = net.in_edges(v);
    ASSERT_EQ(row.size(), off[v + 1] - off[v]);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(flat[off[v] + i].from, row[i].from);
      EXPECT_EQ(flat[off[v] + i].to, row[i].to);
    }
  }
}

TEST(Network, LookupWorksInBothPhases) {
  Network net = two_nodes();
  net.add_link(0, 1, {123.0, 0.0});
  // Before finalize.
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_DOUBLE_EQ(net.link(0, 1).bandwidth_mbps, 123.0);
  net.finalize();
  // After finalize.
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_FALSE(net.has_link(1, 0));
  EXPECT_DOUBLE_EQ(net.find_link(0, 1)->bandwidth_mbps, 123.0);
}

/// Row v's bandwidth order, checked from first principles: a
/// permutation of the row's indices, by descending bandwidth, exact ties
/// by ascending `from`.
void expect_bandwidth_order(const Network& net, const char* context) {
  for (NodeId v = 0; v < net.node_count(); ++v) {
    const auto row = net.in_edges(v);
    const auto order = net.in_bandwidth_order(v);
    ASSERT_EQ(order.size(), row.size()) << context << " row " << v;
    std::vector<std::uint32_t> sorted(order.begin(), order.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      ASSERT_EQ(sorted[i], i) << context << " row " << v;
    }
    for (std::size_t i = 1; i < order.size(); ++i) {
      const Edge& a = row[order[i - 1]];
      const Edge& b = row[order[i]];
      const bool before =
          a.attr.bandwidth_mbps > b.attr.bandwidth_mbps ||
          (a.attr.bandwidth_mbps == b.attr.bandwidth_mbps && a.from < b.from);
      ASSERT_TRUE(before) << context << " row " << v << " position " << i;
    }
    // The flat view is the per-row slices concatenated.
    const auto flat = net.in_bandwidth_order_flat();
    const auto off = net.in_row_offsets();
    ASSERT_TRUE(std::equal(order.begin(), order.end(), flat.begin() + off[v]))
        << context << " row " << v;
  }
  EXPECT_NO_THROW(net.validate()) << context;
}

TEST(Network, InRowBandwidthOrderSortsWidestFirstTiesByFrom) {
  Network net;
  for (int i = 0; i < 5; ++i) {
    net.add_node({});
  }
  net.add_link(0, 4, {10.0, 0.0});
  net.add_link(1, 4, {40.0, 0.0});
  net.add_link(2, 4, {10.0, 0.0});
  net.add_link(3, 4, {40.0, 0.0});
  // in_edges(4) is by `from`: 0, 1, 2, 3.  Widest first, ties by from.
  const auto order = net.in_bandwidth_order(4);
  EXPECT_EQ(std::vector<std::uint32_t>(order.begin(), order.end()),
            (std::vector<std::uint32_t>{1, 3, 0, 2}));
  EXPECT_EQ(net.in_edges(4)[order[0]].from, 1u);
  EXPECT_TRUE(net.in_bandwidth_order(0).empty());

  // A metric delta re-places only the changed link, without a rebuild.
  const std::size_t builds = net.finalize_build_count();
  net.update_link(2, 4, {50.0, 0.0});
  EXPECT_EQ(std::vector<std::uint32_t>(net.in_bandwidth_order(4).begin(),
                                       net.in_bandwidth_order(4).end()),
            (std::vector<std::uint32_t>{2, 1, 3, 0}));
  net.update_link(1, 4, {5.0, 0.0});
  EXPECT_EQ(std::vector<std::uint32_t>(net.in_bandwidth_order(4).begin(),
                                       net.in_bandwidth_order(4).end()),
            (std::vector<std::uint32_t>{2, 3, 0, 1}));
  EXPECT_EQ(net.finalize_build_count(), builds);
  expect_bandwidth_order(net, "after updates");
}

TEST(Network, InRowBandwidthOrderSurvivesUpdateSequencesAndCopies) {
  // Few distinct bandwidths, so most moves cross or land on exact ties.
  const double bandwidths[] = {1.0, 2.0, 2.0, 4.0, 8.0};
  util::Rng rng(20261019);
  Network net;
  const std::size_t k = 24;
  for (std::size_t i = 0; i < k; ++i) {
    net.add_node({});
  }
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = 0; v < k; ++v) {
      if (u != v && rng.uniform_int(0, 2) != 0) {
        net.add_link(u, v, {bandwidths[rng.uniform_int(0, 4)], 0.0});
        links.emplace_back(u, v);
      }
    }
  }
  expect_bandwidth_order(net, "built");
  const std::size_t bytes = net.approx_bytes();
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i) {
      const auto [u, v] = links[rng.index(links.size())];
      net.update_link(u, v, {bandwidths[rng.uniform_int(0, 4)], 0.001});
    }
    expect_bandwidth_order(net, "updated");
    // A copy carries the order and keeps it current under its own
    // updates, independent of the original.
    Network copy = net;
    const auto [u, v] = links[rng.index(links.size())];
    copy.update_link(u, v, {16.0, 0.0});
    expect_bandwidth_order(copy, "copy");
    EXPECT_EQ(copy.in_edges(v)[copy.in_bandwidth_order(v)[0]].from, u);
    expect_bandwidth_order(net, "original after copy update");
  }
  EXPECT_EQ(net.finalize_build_count(), 1u);
  EXPECT_EQ(net.approx_bytes(), bytes);
}

TEST(Network, ApproxBytesCountsTheBandwidthOrder) {
  util::Rng rng(7);
  Network net;
  for (int i = 0; i < 10; ++i) {
    net.add_node({});
  }
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      if (u != v) {
        net.add_link(u, v, {static_cast<double>(rng.uniform_int(1, 9)), 0.0});
      }
    }
  }
  const std::size_t unbuilt = net.approx_bytes();
  net.finalize();
  // finalize() adds exactly the two CSR copies, the two offset arrays and
  // one 4-byte order entry per link.
  const std::size_t links = net.link_count();
  EXPECT_EQ(net.approx_bytes() - unbuilt,
            2 * links * sizeof(Edge) + 2 * 11 * sizeof(std::size_t) +
                links * sizeof(std::uint32_t));
}

}  // namespace
}  // namespace elpc::graph
