#include "index/transitive_closure.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/traversal.h"

namespace flix::index {
namespace {

graph::Digraph RandomGraph(size_t n, size_t edges, uint64_t seed) {
  Rng rng(seed);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(3)));
  for (size_t e = 0; e < edges; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
              static_cast<NodeId>(rng.Uniform(n)));
  }
  return g;
}

TEST(TcTest, ChainClosure) {
  graph::Digraph g(4);
  for (NodeId i = 0; i + 1 < 4; ++i) g.AddEdge(i, i + 1);
  auto built = TransitiveClosureIndex::Build(g);
  ASSERT_TRUE(built.ok());
  const auto& tc = *built;
  EXPECT_EQ(tc->NumPairs(), 6u);  // 3+2+1
  EXPECT_EQ(tc->DistanceBetween(0, 3), 3);
  EXPECT_EQ(tc->DistanceBetween(3, 0), kUnreachable);
  EXPECT_EQ(tc->DistanceBetween(2, 2), 0);
}

TEST(TcTest, MatchesOracleEverywhere) {
  const graph::Digraph g = RandomGraph(50, 120, 83);
  auto built = TransitiveClosureIndex::Build(g);
  ASSERT_TRUE(built.ok());
  const auto& tc = *built;
  const graph::ReachabilityOracle oracle(g);
  for (NodeId u = 0; u < 50; u += 3) {
    EXPECT_EQ(tc->Descendants(u), oracle.Descendants(u));
    for (TagId tag = 0; tag < 3; ++tag) {
      EXPECT_EQ(tc->DescendantsByTag(u, tag), oracle.DescendantsByTag(u, tag));
      EXPECT_EQ(tc->AncestorsByTag(u, tag), oracle.AncestorsByTag(u, tag));
    }
  }
}

TEST(TcTest, MaxPairsGuard) {
  // Complete-ish graph blows the pair budget.
  graph::Digraph g(40);
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = 0; v < 40; ++v) {
      if (u != v) g.AddEdge(u, v);
    }
  }
  TcOptions options;
  options.max_pairs = 100;
  const auto built = TransitiveClosureIndex::Build(g, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kOutOfRange);
}

TEST(TcTest, CountClosurePairsMatchesBuild) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const graph::Digraph g = RandomGraph(40, 100, seed);
    auto built = TransitiveClosureIndex::Build(g);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(graph::CountClosurePairs(g), (*built)->NumPairs());
  }
}

TEST(TcTest, MemoryGrowsWithClosureSize) {
  graph::Digraph sparse(100);
  graph::Digraph dense(100);
  for (NodeId i = 0; i + 1 < 100; ++i) dense.AddEdge(i, i + 1);
  auto tc_sparse = TransitiveClosureIndex::Build(sparse);
  auto tc_dense = TransitiveClosureIndex::Build(dense);
  ASSERT_TRUE(tc_sparse.ok());
  ASSERT_TRUE(tc_dense.ok());
  EXPECT_GT((*tc_dense)->MemoryBytes(), (*tc_sparse)->MemoryBytes());
}

}  // namespace
}  // namespace flix::index
