// Tests for the Section 7 "future work" features implemented beyond the
// paper's core: exact-order evaluation, query statistics + self-tuning
// advice, the query result cache, and element-level meta documents.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "flix/flix.h"
#include "flix/query_cache.h"
#include "graph/traversal.h"
#include "workload/synthetic_generator.h"
#include "xml/collection.h"

namespace flix::core {
namespace {

// Same cyclic three-document collection as flix_pee_test.
xml::Collection ChainedCollection() {
  xml::Collection c;
  EXPECT_TRUE(c.AddXml("<a><b/><link href=\"d1\"/></a>", "d0").ok());
  EXPECT_TRUE(c.AddXml("<a><b><link href=\"d2#mid\"/></b></a>", "d1").ok());
  EXPECT_TRUE(c.AddXml(
      R"(<a><c id="mid"><b/></c><link href="d0"/></a>)", "d2").ok());
  c.ResolveAllLinks();
  return c;
}

TEST(ExactModeTest, DistancesAreExactAndSorted) {
  const auto collection = workload::GenerateSynthetic({.seed = 61});
  ASSERT_TRUE(collection.ok());
  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);

  for (const MdbConfig config :
       {MdbConfig::kNaive, MdbConfig::kUnconnectedHopi, MdbConfig::kHybrid}) {
    FlixOptions options;
    options.config = config;
    options.partition_bound = 60;
    auto flix = Flix::Build(*collection, options);
    ASSERT_TRUE(flix.ok());

    const TagId tag = collection->pool().Lookup("t1");
    ASSERT_NE(tag, kInvalidTag);
    for (DocId d = 0; d < collection->NumDocuments(); d += 3) {
      const NodeId start = collection->GlobalId(d, 0);
      QueryOptions qopts;
      qopts.exact = true;
      std::vector<Result> results;
      (*flix)->pee().FindDescendantsByTag(start, tag, qopts,
                                          [&](const Result& r) {
                                            results.push_back(r);
                                            return true;
                                          });
      const std::vector<graph::NodeDist> expected =
          oracle.DescendantsByTag(start, tag);
      ASSERT_EQ(results.size(), expected.size());
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].node, expected[i].node);
        EXPECT_EQ(results[i].distance, expected[i].distance)
            << "exact distance mismatch, config "
            << MdbConfigName(config) << " start " << start;
      }
    }
  }
}

TEST(ExactModeTest, ExactPointDistanceMatchesOracle) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = MdbConfig::kUnconnectedHopi;
  options.partition_bound = 4;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      EXPECT_EQ((*flix)->FindDistance(a, b), oracle.Distance(a, b))
          << a << "->" << b;
    }
  }
}

TEST(ExactModeTest, RespectsMaxResultsAfterSorting) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  QueryOptions qopts;
  qopts.exact = true;
  qopts.max_results = 2;
  std::vector<Result> results;
  (*flix)->pee().FindDescendants(c.GlobalId(0, 0), qopts,
                                 [&](const Result& r) {
                                   results.push_back(r);
                                   return true;
                                 });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LE(results[0].distance, results[1].distance);
  EXPECT_EQ(results[0].distance, 1);  // nearest descendants first
}

TEST(ExactTopKTest, StreamsTheFullDrainsHeadAndStopsEarly) {
  const auto collection = workload::GenerateSynthetic({.seed = 61});
  ASSERT_TRUE(collection.ok());
  constexpr int64_t kTopK = 5;
  for (const MdbConfig config :
       {MdbConfig::kNaive, MdbConfig::kUnconnectedHopi, MdbConfig::kHybrid}) {
    SCOPED_TRACE(MdbConfigName(config));
    FlixOptions options;
    options.config = config;
    options.partition_bound = 60;
    auto flix = Flix::Build(*collection, options);
    ASSERT_TRUE(flix.ok());
    ASSERT_GT((*flix)->stats().num_meta_documents, 1u);

    const TagId tag = collection->pool().Lookup("t1");
    ASSERT_NE(tag, kInvalidTag);
    const auto run = [&](NodeId start, int64_t max_results,
                         QueryStats* stats) {
      QueryOptions qopts;
      qopts.exact = true;
      qopts.max_results = max_results;
      std::vector<Result> results;
      (*flix)->pee().FindDescendantsByTag(start, tag, qopts,
                                          [&](const Result& r) {
                                            results.push_back(r);
                                            return true;
                                          },
                                          stats);
      return results;
    };

    size_t checked = 0;
    for (DocId d = 0; d < collection->NumDocuments(); d += 3) {
      const NodeId start = collection->GlobalId(d, 0);
      QueryStats full_stats;
      const std::vector<Result> full = run(start, -1, &full_stats);
      if (full.size() <= static_cast<size_t>(kTopK)) continue;
      QueryStats top_stats;
      const std::vector<Result> top = run(start, kTopK, &top_stats);

      ASSERT_EQ(top.size(), static_cast<size_t>(kTopK)) << "start " << start;
      std::unordered_map<NodeId, Distance> full_distance;
      for (const Result& r : full) full_distance.emplace(r.node, r.distance);
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].distance, full[i].distance)
            << "rank " << i << ", start " << start;
        ASSERT_TRUE(full_distance.contains(top[i].node));
        EXPECT_EQ(top[i].distance, full_distance[top[i].node]);
      }
      // The top-k query stopped before the full traversal finished.
      EXPECT_TRUE(top_stats.cursor_saved > 0 ||
                  top_stats.entries_processed < full_stats.entries_processed)
          << "start " << start;
      ++checked;
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(QueryStatsTest, CountersPopulated) {
  // Like ChainedCollection, but d2's back link to d0 hangs *below* the
  // entry anchor, so the d0 -> d1 -> d2 -> d0 cycle is actually traversed
  // and duplicate elimination kicks in.
  xml::Collection c;
  ASSERT_TRUE(c.AddXml("<a><b/><link href=\"d1\"/></a>", "d0").ok());
  ASSERT_TRUE(c.AddXml("<a><b><link href=\"d2#mid\"/></b></a>", "d1").ok());
  ASSERT_TRUE(c.AddXml(
      R"(<a><c id="mid"><b/><link href="d0"/></c></a>)", "d2").ok());
  c.ResolveAllLinks();
  FlixOptions options;
  options.config = MdbConfig::kNaive;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  QueryStats stats;
  std::vector<Result> results;
  (*flix)->pee().FindDescendantsByTag(
      c.GlobalId(0, 0), c.pool().Lookup("b"), {},
      [&](const Result& r) {
        results.push_back(r);
        return true;
      },
      &stats);
  EXPECT_GT(stats.entries_processed, 1u);  // crosses meta documents
  EXPECT_GT(stats.links_followed, 0u);
  EXPECT_GT(stats.index_probes, 0u);
  // The d2 -> d0 back link eventually produces a dominated entry.
  EXPECT_GT(stats.entries_dominated, 0u);
}

TEST(QueryCacheTest, LruSemantics) {
  QueryCache cache(2);
  cache.Insert(1, 10, {{5, 1}});
  cache.Insert(2, 10, {{6, 1}});
  std::vector<Result> out;
  EXPECT_TRUE(cache.Lookup(1, 10, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].node, 5u);
  // Inserting a third entry evicts the least recently used (2, 10).
  cache.Insert(3, 10, {{7, 1}});
  EXPECT_FALSE(cache.Lookup(2, 10, &out));
  EXPECT_TRUE(cache.Lookup(1, 10, &out));
  EXPECT_TRUE(cache.Lookup(3, 10, &out));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.hits(), 3u);
  EXPECT_GE(cache.misses(), 1u);
}

TEST(QueryCacheTest, ZeroCapacityDisabled) {
  QueryCache cache(0);
  cache.Insert(1, 1, {{2, 1}});
  std::vector<Result> out;
  EXPECT_FALSE(cache.Lookup(1, 1, &out));
}

TEST(QueryCacheTest, FacadeUsesCache) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.query_cache_capacity = 8;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  ASSERT_NE((*flix)->query_cache(), nullptr);

  const NodeId start = c.GlobalId(0, 0);
  const auto first = (*flix)->FindDescendantsByName(start, "b");
  const auto second = (*flix)->FindDescendantsByName(start, "b");
  EXPECT_EQ(first, second);
  EXPECT_GE((*flix)->query_cache()->hits(), 1u);

  // Constrained queries bypass the cache but still return correct results.
  QueryOptions limited;
  limited.max_results = 1;
  EXPECT_EQ((*flix)->FindDescendantsByName(start, "b", limited).size(), 1u);
}

TEST(ElementLevelTest, PartitionsMaySplitDocuments) {
  // One big document plus small ones; with element-level partitioning and a
  // small bound, the big document must be split across meta documents.
  xml::Collection c;
  std::string big = "<root>";
  for (int i = 0; i < 60; ++i) big += "<item/>";
  big += "</root>";
  ASSERT_TRUE(c.AddXml(big, "big").ok());
  ASSERT_TRUE(c.AddXml("<a><b/></a>", "small").ok());
  c.ResolveAllLinks();

  FlixOptions options;
  options.config = MdbConfig::kUnconnectedHopi;
  options.partition_bound = 20;
  options.element_level_partitions = true;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());

  std::set<uint32_t> metas_of_big;
  for (xml::ElementId e = 0; e < c.document(0).NumElements(); ++e) {
    metas_of_big.insert(
        (*flix)->meta_documents().meta_of_node[c.GlobalId(0, e)]);
  }
  EXPECT_GT(metas_of_big.size(), 1u);

  // Queries still return the exact result set.
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const TagId item = c.pool().Lookup("item");
  const auto results = (*flix)->FindDescendantsByName(c.GlobalId(0, 0), "item");
  EXPECT_EQ(results.size(), oracle.DescendantsByTag(c.GlobalId(0, 0), item).size());
}

TEST(ElementLevelTest, DocumentLevelKeepsDocumentsWhole) {
  xml::Collection c;
  std::string big = "<root>";
  for (int i = 0; i < 60; ++i) big += "<item/>";
  big += "</root>";
  ASSERT_TRUE(c.AddXml(big, "big").ok());
  c.ResolveAllLinks();
  FlixOptions options;
  options.config = MdbConfig::kUnconnectedHopi;
  options.partition_bound = 20;
  options.element_level_partitions = false;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  std::set<uint32_t> metas;
  for (xml::ElementId e = 0; e < c.document(0).NumElements(); ++e) {
    metas.insert((*flix)->meta_documents().meta_of_node[c.GlobalId(0, e)]);
  }
  EXPECT_EQ(metas.size(), 1u);
}

}  // namespace
}  // namespace flix::core
