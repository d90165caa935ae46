#include "hardware/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "hardware/device.hpp"

namespace qucp {
namespace {

Topology line5() {
  return Topology(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
}

/// Edge ids at one-hop distance from edge id `e` (disjoint, with one
/// coupling between them): the per-edge oracle one_hop_edge_pairs is
/// checked against.
std::vector<int> one_hop_neighbors_of_edge(const Topology& t, int e) {
  if (e < 0 || e >= t.num_edges()) {
    throw std::out_of_range("Topology: edge id out of range");
  }
  std::vector<int> out;
  for (int j = 0; j < t.num_edges(); ++j) {
    if (j == e) continue;
    const Edge& a = t.edges()[e];
    const Edge& b = t.edges()[j];
    if (a.shares_qubit(b)) continue;
    const int d = std::min({t.distance(a.a, b.a), t.distance(a.a, b.b),
                            t.distance(a.b, b.a), t.distance(a.b, b.b)});
    if (d == 1) out.push_back(j);
  }
  return out;
}

TEST(Edge, CanonicalOrder) {
  const Edge e(3, 1);
  EXPECT_EQ(e.a, 1);
  EXPECT_EQ(e.b, 3);
  EXPECT_TRUE(e.contains(1));
  EXPECT_TRUE(e.contains(3));
  EXPECT_FALSE(e.contains(2));
  EXPECT_EQ(e, Edge(1, 3));
}

TEST(Edge, SharesQubit) {
  EXPECT_TRUE(Edge(0, 1).shares_qubit(Edge(1, 2)));
  EXPECT_FALSE(Edge(0, 1).shares_qubit(Edge(2, 3)));
}

TEST(Topology, ConstructionValidation) {
  EXPECT_THROW(Topology(0, {}), std::invalid_argument);
  EXPECT_THROW(Topology(2, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Topology(2, {{0, 5}}), std::out_of_range);
  EXPECT_THROW(Topology(3, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(Topology, AdjacencyAndDegree) {
  const Topology t = line5();
  EXPECT_TRUE(t.adjacent(0, 1));
  EXPECT_TRUE(t.adjacent(1, 0));
  EXPECT_FALSE(t.adjacent(0, 2));
  EXPECT_EQ(t.neighbors(0).size(), 1u);
  EXPECT_EQ(t.neighbors(2).size(), 2u);
  EXPECT_EQ(t.neighbors(2), (std::vector<int>{1, 3}));
  EXPECT_THROW((void)t.adjacent(0, 9), std::out_of_range);
}

TEST(Topology, EdgeIndexLookup) {
  const Topology t = line5();
  EXPECT_TRUE(t.edge_index(1, 2).has_value());
  EXPECT_EQ(t.edge_index(2, 1), t.edge_index(1, 2));
  EXPECT_FALSE(t.edge_index(0, 4).has_value());
}

TEST(Topology, BfsDistances) {
  const Topology t = line5();
  EXPECT_EQ(t.distance(0, 0), 0);
  EXPECT_EQ(t.distance(0, 4), 4);
  EXPECT_EQ(t.distance(4, 0), 4);
  EXPECT_EQ(t.distance(1, 3), 2);
}

TEST(Topology, DisconnectedDistanceIsMinusOne) {
  const Topology t(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(t.distance(0, 3), -1);
  EXPECT_EQ(t.distance(0, 1), 1);
}

TEST(Topology, OneHopEdgePairsOnLine) {
  const Topology t = line5();
  // Edges: 0:(0,1) 1:(1,2) 2:(2,3) 3:(3,4). Disjoint pairs at one hop:
  // {0,2} via 1-2, {1,3} via 2-3. {0,3} is two hops.
  const auto pairs = t.one_hop_edge_pairs();
  const std::set<std::pair<int, int>> got(pairs.begin(), pairs.end());
  EXPECT_EQ(got, (std::set<std::pair<int, int>>{{0, 2}, {1, 3}}));
}

TEST(Topology, OneHopNeighborsOfEdge) {
  const Topology t = line5();
  EXPECT_EQ(one_hop_neighbors_of_edge(t, 0), (std::vector<int>{2}));
  EXPECT_EQ(one_hop_neighbors_of_edge(t, 1), (std::vector<int>{3}));
  EXPECT_THROW((void)one_hop_neighbors_of_edge(t, 99), std::out_of_range);
}

TEST(Topology, OneHopPairsConsistentWithNeighborLists) {
  const Topology grid(9, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8},
                          {0, 3}, {3, 6}, {1, 4}, {4, 7}, {2, 5}, {5, 8}});
  const Topology ring(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  const Device toronto = make_toronto27();
  const Device manhattan = make_manhattan65();
  struct Case {
    const Topology* topo;
    std::size_t pairs;  ///< one-hop pair count (Table I's for the devices)
  };
  const Topology line = line5();
  for (const Case& c : {Case{&grid, 32}, Case{&line, 2}, Case{&ring, 2},
                        Case{&toronto.topology(), 40},
                        Case{&manhattan.topology(), 116}}) {
    const Topology& t = *c.topo;
    const int ne = t.num_edges();
    // The relation, ordered pairs (shared-qubit pairs and e == f
    // included), against the distance oracle; its i < j pairs in order
    // are one_hop_edge_pairs.
    std::vector<std::pair<int, int>> upper;
    std::size_t from_lists = 0;
    for (int e = 0; e < ne; ++e) {
      const std::vector<int> near = one_hop_neighbors_of_edge(t, e);
      from_lists += near.size();
      for (int f = 0; f < ne; ++f) {
        const bool want = std::count(near.begin(), near.end(), f) == 1;
        EXPECT_EQ(t.one_hop(e, f), want) << e << "," << f;
        if (e < f && t.one_hop(e, f)) upper.emplace_back(e, f);
      }
    }
    EXPECT_EQ(t.one_hop_edge_pairs(), upper);
    EXPECT_EQ(upper.size() * 2, from_lists);
    EXPECT_EQ(upper.size(), c.pairs);
    EXPECT_THROW((void)t.one_hop(-1, 0), std::out_of_range);
    EXPECT_THROW((void)t.one_hop(0, ne), std::out_of_range);
    EXPECT_THROW((void)t.one_hop(ne, 0), std::out_of_range);
  }
}

TEST(Topology, ConnectedSubset) {
  const Topology t = line5();
  EXPECT_TRUE(t.is_connected_subset(std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(t.is_connected_subset(std::vector<int>{0, 2}));
  EXPECT_TRUE(t.is_connected_subset(std::vector<int>{}));
  EXPECT_TRUE(t.is_connected_subset(std::vector<int>{4}));
}

TEST(Topology, InducedEdges) {
  const Topology t = line5();
  const auto edges = t.induced_edges(std::vector<int>{1, 2, 3});
  EXPECT_EQ(edges, (std::vector<int>{1, 2}));
  EXPECT_TRUE(t.induced_edges(std::vector<int>{0, 2}).empty());
}

TEST(Topology, RingOneHopPairs) {
  const Topology ring(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  // Opposite edges of a square are disjoint and at one hop.
  const auto pairs = ring.one_hop_edge_pairs();
  EXPECT_EQ(pairs.size(), 2u);
}

}  // namespace
}  // namespace qucp
