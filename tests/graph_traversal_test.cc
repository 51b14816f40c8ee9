#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <utility>

#include "common/rng.h"
#include "graph/digraph.h"

namespace flix::graph {
namespace {

// Chain 0 -> 1 -> 2 -> 3.
Digraph Chain(size_t n) {
  Digraph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

TEST(BfsTest, DistancesAlongChain) {
  const Digraph g = Chain(4);
  const std::vector<Distance> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist, (std::vector<Distance>{0, 1, 2, 3}));
}

TEST(BfsTest, BackwardDirection) {
  const Digraph g = Chain(4);
  const std::vector<Distance> dist = BfsDistances(g, 3, Direction::kBackward);
  EXPECT_EQ(dist, (std::vector<Distance>{3, 2, 1, 0}));
}

TEST(BfsTest, UnreachableMarked) {
  Digraph g(3);
  g.AddEdge(0, 1);
  const std::vector<Distance> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(BfsTest, MaxDepthCutsOff) {
  const Digraph g = Chain(5);
  const std::vector<Distance> dist = BfsDistances(g, 0, Direction::kForward, 2);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(BfsTest, ShortestPathThroughDiamond) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, plus long detour 0 -> 4 -> 5 -> 3.
  Digraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(0, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  EXPECT_EQ(BfsDistance(g, 0, 3), 2);
}

TEST(BfsTest, PointQuerySelf) {
  const Digraph g = Chain(2);
  EXPECT_EQ(BfsDistance(g, 1, 1), 0);
}

TEST(BfsTest, PointQueryUnreachable) {
  const Digraph g = Chain(3);
  EXPECT_EQ(BfsDistance(g, 2, 0), kUnreachable);
}

TEST(BfsTest, CycleHandled) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  const std::vector<Distance> dist = BfsDistances(g, 0);
  EXPECT_EQ(dist, (std::vector<Distance>{0, 1, 2}));
  EXPECT_EQ(BfsDistance(g, 2, 1), 2);
}

TEST(OracleTest, DescendantsByTagSortedByDistance) {
  // 0(t0) -> 1(t1) -> 2(t1), 0 -> 3(t1)
  Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(1);
  g.AddNode(1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  const ReachabilityOracle oracle(g);
  const std::vector<NodeDist> result = oracle.DescendantsByTag(0, 1);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], (NodeDist{1, 1}));
  EXPECT_EQ(result[1], (NodeDist{3, 1}));
  EXPECT_EQ(result[2], (NodeDist{2, 2}));
}

TEST(OracleTest, SelfExcludedEvenWithMatchingTag) {
  Digraph g;
  g.AddNode(1);
  g.AddNode(1);
  g.AddEdge(0, 1);
  const ReachabilityOracle oracle(g);
  const std::vector<NodeDist> result = oracle.DescendantsByTag(0, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].node, 1u);
}

TEST(OracleTest, WildcardDescendants) {
  Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const ReachabilityOracle oracle(g);
  EXPECT_EQ(oracle.Descendants(0).size(), 2u);
  EXPECT_EQ(oracle.Descendants(2).size(), 0u);
}

TEST(OracleTest, AncestorsByTag) {
  Digraph g;
  g.AddNode(5);
  g.AddNode(6);
  g.AddNode(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const ReachabilityOracle oracle(g);
  const std::vector<NodeDist> result = oracle.AncestorsByTag(2, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], (NodeDist{0, 2}));
}

TEST(OracleTest, IsReachableAndDistance) {
  const Digraph g = Chain(4);
  const ReachabilityOracle oracle(g);
  EXPECT_TRUE(oracle.IsReachable(0, 3));
  EXPECT_FALSE(oracle.IsReachable(3, 0));
  EXPECT_EQ(oracle.Distance(0, 3), 3);
  EXPECT_EQ(oracle.Distance(3, 0), kUnreachable);
}

TEST(OracleTest, RandomGraphSelfConsistency) {
  // Descendants found by tag must match the wildcard set filtered by tag.
  Rng rng(44);
  Digraph g;
  for (int i = 0; i < 60; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(4)));
  for (int e = 0; e < 120; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(60)),
              static_cast<NodeId>(rng.Uniform(60)));
  }
  const ReachabilityOracle oracle(g);
  for (NodeId start = 0; start < 10; ++start) {
    const std::vector<NodeDist> wildcard = oracle.Descendants(start);
    for (TagId tag = 0; tag < 4; ++tag) {
      std::vector<NodeDist> expected;
      for (const NodeDist& nd : wildcard) {
        if (g.Tag(nd.node) == tag) expected.push_back(nd);
      }
      EXPECT_EQ(oracle.DescendantsByTag(start, tag), expected);
    }
  }
}

// Random graph on `n` nodes; with `acyclic`, every edge goes from a lower to
// a higher node id.
Digraph RandomGraph(size_t n, size_t edges, uint64_t seed, bool acyclic) {
  Rng rng(seed);
  Digraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(3)));
  for (size_t e = 0; e < edges; ++e) {
    NodeId a = static_cast<NodeId>(rng.Uniform(n));
    NodeId b = static_cast<NodeId>(rng.Uniform(n));
    if (acyclic) {
      if (a == b) continue;
      if (a > b) std::swap(a, b);
    }
    g.AddEdge(a, b);
  }
  return g;
}

TEST(CountClosurePairsTest, MatchesOracleReachableSets) {
  for (const bool acyclic : {true, false}) {
    for (uint64_t seed = 0; seed < 5; ++seed) {
      const Digraph g = RandomGraph(40, 100, seed, acyclic);
      const ReachabilityOracle oracle(g);
      size_t expected = 0;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        expected += oracle.Descendants(v).size();
      }
      EXPECT_EQ(CountClosurePairs(g), expected)
          << (acyclic ? "DAG" : "cyclic graph") << ", seed " << seed;
    }
  }
}

TEST(CountClosurePairsTest, OnCycle) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  // Each node reaches the other two (self excluded): 6 pairs.
  EXPECT_EQ(CountClosurePairs(g), 6u);
}

}  // namespace
}  // namespace flix::graph
