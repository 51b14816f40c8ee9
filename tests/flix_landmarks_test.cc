#include "flix/landmarks.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "flix/flix.h"
#include "graph/traversal.h"
#include "storage/format.h"
#include "storage/segment.h"
#include "workload/synthetic_generator.h"
#include "xml/collection.h"

namespace flix::core {
namespace {

// Same shape as flix_pee_test's chained collection: three documents whose
// links form a cycle, so partition_bound=4 forces a >= 3-partition chain
// and every cross-partition query hops at least one super edge.
xml::Collection ChainedCollection() {
  xml::Collection c;
  EXPECT_TRUE(c.AddXml("<a><b/><link href=\"d1\"/></a>", "d0").ok());
  EXPECT_TRUE(c.AddXml("<a><b><link href=\"d2#mid\"/></b></a>", "d1").ok());
  EXPECT_TRUE(c.AddXml(
      R"(<a><c id="mid"><b/></c><link href="d0"/></a>)", "d2").ok());
  c.ResolveAllLinks();
  return c;
}

std::unique_ptr<Flix> MustBuild(const xml::Collection& c, MdbConfig config,
                                size_t partition_bound,
                                size_t landmark_count) {
  FlixOptions options;
  options.config = config;
  options.partition_bound = partition_bound;
  options.landmark_count = landmark_count;
  auto flix = Flix::Build(c, options);
  EXPECT_TRUE(flix.ok()) << flix.status().ToString();
  return std::move(*flix);
}

class LandmarkConfigTest : public ::testing::TestWithParam<MdbConfig> {};

// The central guarantee: with the cache resident, every point query
// returns byte-identical answers to the blind walk, which in turn matches
// the BFS oracle — including a == b, unreachable pairs, and max_distance
// exactly at / one below the true distance.
TEST_P(LandmarkConfigTest, GuidedMatchesBlindAndOracle) {
  const auto collection = workload::GenerateSynthetic({.seed = 42});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, GetParam(), 60, 8);
  ASSERT_NE(flix->meta_documents().landmarks.Snapshot(), nullptr);

  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); a += 29) {
    for (NodeId b = 0; b < g.NumNodes(); b += 31) {
      const Distance truth = oracle.Distance(a, b);
      flix->SetLandmarksEnabled(false);
      const Distance blind = flix->FindDistance(a, b);
      flix->SetLandmarksEnabled(true);
      const Distance guided = flix->FindDistance(a, b);
      EXPECT_EQ(guided, blind) << a << "->" << b;
      EXPECT_EQ(guided, truth) << a << "->" << b;
      if (truth != kUnreachable && truth > 0) {
        // A budget exactly at the true distance keeps the answer; one
        // below it must report unreachable — in both modes.
        EXPECT_EQ(flix->FindDistance(a, b, truth), truth);
        EXPECT_EQ(flix->FindDistance(a, b, truth - 1), kUnreachable);
        flix->SetLandmarksEnabled(false);
        EXPECT_EQ(flix->FindDistance(a, b, truth), truth);
        EXPECT_EQ(flix->FindDistance(a, b, truth - 1), kUnreachable);
        flix->SetLandmarksEnabled(true);
      }
      EXPECT_EQ(flix->IsConnected(a, b), truth != kUnreachable);
      EXPECT_EQ(flix->pee().IsConnectedBidirectional(a, b),
                truth != kUnreachable);
    }
    EXPECT_EQ(flix->FindDistance(a, a), 0);
  }
}

TEST_P(LandmarkConfigTest, MultiPartitionChain) {
  const xml::Collection c = ChainedCollection();
  auto flix = MustBuild(c, GetParam(), 4, 8);
  // The per-document configs must split this into a >= 3-partition chain;
  // the merging configs may legally fuse it (the differential check below
  // still runs — it just exercises the local path there).
  if (GetParam() == MdbConfig::kNaive ||
      GetParam() == MdbConfig::kUnconnectedHopi) {
    ASSERT_GE(flix->meta_documents().docs.size(), 3u);
  }
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      EXPECT_EQ(flix->FindDistance(a, b), oracle.Distance(a, b))
          << a << "->" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, LandmarkConfigTest,
    ::testing::Values(MdbConfig::kNaive, MdbConfig::kMaximalPpo,
                      MdbConfig::kUnconnectedHopi, MdbConfig::kHybrid),
    [](const ::testing::TestParamInfo<MdbConfig>& info) {
      return std::string(MdbConfigName(info.param));
    });

// h(n, g) never overstates the true distance, and unreachability proofs
// never fire for reachable pairs — the two properties the A* rewrite rests
// on, checked directly against the BFS oracle.
TEST(LandmarkCacheTest, BoundsAreAdmissible) {
  const auto collection = workload::GenerateSynthetic({.seed = 77});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 12);
  const LandmarkCache* cache = flix->meta_documents().landmarks.Snapshot();
  ASSERT_NE(cache, nullptr);
  EXPECT_FALSE(cache->empty());

  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId goal = 0; goal < g.NumNodes(); goal += 53) {
    const LandmarkCache::GoalView view = cache->Goal(goal);
    for (NodeId n = 0; n < g.NumNodes(); n += 17) {
      const Distance truth = oracle.Distance(n, goal);
      if (truth == kUnreachable) continue;
      EXPECT_LE(cache->LowerBound(n, view), truth) << n << "->" << goal;
      EXPECT_FALSE(cache->ProvablyUnreachable(n, view)) << n << "->" << goal;
    }
  }
  EXPECT_TRUE(cache->Validate(g, 32, /*seed=*/1).ok());
}

TEST(LandmarkCacheTest, ValidateCatchesFlippedDistance) {
  const auto collection = workload::GenerateSynthetic({.seed = 19});
  ASSERT_TRUE(collection.ok());
  const graph::Digraph g = collection->BuildGraph();
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 4);
  const LandmarkCache* cache = flix->meta_documents().landmarks.Snapshot();
  ASSERT_NE(cache, nullptr);

  storage::SegmentWriter seg;
  cache->AppendArrays(seg);
  std::vector<std::byte> bytes = seg.Finish();
  // Array 3 of the segment is the from-landmark distance table; flipping
  // its last byte damages one row without breaking the shape.
  {
    auto view = storage::SegmentView::Parse({bytes.data(), bytes.size()});
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto from_land = view->GetArray<uint16_t>(3);
    ASSERT_TRUE(from_land.ok()) << from_land.status().ToString();
    ASSERT_FALSE(from_land->empty());
    const size_t last = static_cast<size_t>(
        reinterpret_cast<const std::byte*>(from_land->data() +
                                           from_land->size()) -
        bytes.data()) - 1;
    bytes[last] ^= std::byte{0x2b};
  }
  auto damaged = storage::SegmentView::Parse({bytes.data(), bytes.size()});
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
  StatusOr<LandmarkCache> loaded =
      LandmarkCache::FromSegment(*damaged, cache->num_nodes());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Full sweep (sample >= nodes) must notice the flip.
  EXPECT_FALSE(loaded->Validate(g, g.NumNodes(), /*seed=*/1).ok());
}

TEST(LandmarkPersistenceTest, MappedRoundTrip) {
  const auto collection = workload::GenerateSynthetic({.seed = 62});
  ASSERT_TRUE(collection.ok());
  auto original = MustBuild(*collection, MdbConfig::kHybrid, 60, 8);
  const auto before = original->meta_documents().landmarks.Snapshot();
  ASSERT_NE(before, nullptr);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "landmarks.flix")
          .string();
  ASSERT_TRUE(original->Save(path, Flix::IndexFormat::kMapped).ok());
  auto loaded = Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const auto after = (*loaded)->meta_documents().landmarks.Snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->num_landmarks(), before->num_landmarks());
  EXPECT_TRUE(after->Validate(collection->BuildGraph(), 32, 1).ok());

  // Same answers out of the mapped cache.
  const graph::Digraph g = collection->BuildGraph();
  for (NodeId a = 0; a < g.NumNodes(); a += 37) {
    for (NodeId b = 0; b < g.NumNodes(); b += 41) {
      EXPECT_EQ((*loaded)->FindDistance(a, b), original->FindDistance(a, b));
    }
  }
}

TEST(LandmarkLifecycleTest, CountZeroDisablesTheCache) {
  const auto collection = workload::GenerateSynthetic({.seed = 63});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 0);
  EXPECT_EQ(flix->meta_documents().landmarks.Snapshot(), nullptr);
  // Point queries still answer, blind.
  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); a += 43) {
    for (NodeId b = 0; b < g.NumNodes(); b += 47) {
      EXPECT_EQ(flix->FindDistance(a, b), oracle.Distance(a, b));
    }
  }
}

// The offline rebuild behind `flixctl landmarks --count N`: the new count
// reaches the cache, survives Save/Load, and answers stay exact.
TEST(LandmarkLifecycleTest, RebuildSaveLoadKeepsTheNewCount) {
  const auto collection = workload::GenerateSynthetic({.seed = 65});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 8);
  flix->RebuildLandmarks(6);
  ASSERT_NE(flix->meta_documents().landmarks.Snapshot(), nullptr);
  EXPECT_EQ(flix->meta_documents().landmarks.Snapshot()->num_landmarks(), 6u);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "rebuilt.flix").string();
  ASSERT_TRUE(flix->Save(path).ok());
  auto loaded = Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->options().landmark_count, 6u);
  const LandmarkCache* cache = (*loaded)->meta_documents().landmarks.Snapshot();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->num_landmarks(), 6u);
  const graph::Digraph g = collection->BuildGraph();
  EXPECT_TRUE(cache->Validate(g, 16, 1).ok());
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); a += 43) {
    for (NodeId b = 0; b < g.NumNodes(); b += 47) {
      EXPECT_EQ((*loaded)->FindDistance(a, b), oracle.Distance(a, b));
    }
  }

  // A count of 0 removes the cache, and the file then carries none.
  flix->RebuildLandmarks(0);
  EXPECT_EQ(flix->meta_documents().landmarks.Snapshot(), nullptr);
  ASSERT_TRUE(flix->Save(path).ok());
  auto blind = Flix::Load(path, *collection);
  ASSERT_TRUE(blind.ok()) << blind.status().ToString();
  EXPECT_EQ((*blind)->meta_documents().landmarks.Snapshot(), nullptr);
}

// Files whose landmark cache was refreshed by older builds carry a rebuild
// generation above 1 in the superblock and in the segment's meta array.
// That value is retired: such a file loads with its cache, and guided
// answers equal blind ones.
TEST(LandmarkPersistenceTest, FileWithOlderGenerationLoads) {
  const auto collection = workload::GenerateSynthetic({.seed = 67});
  ASSERT_TRUE(collection.ok());
  auto original = MustBuild(*collection, MdbConfig::kHybrid, 60, 8);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "generation.flix")
          .string();
  ASSERT_TRUE(original->Save(path).ok());

  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  storage::Superblock sb;
  std::memcpy(&sb, bytes.data(), sizeof(sb));
  ASSERT_GT(sb.landmark_generation, 0u);
  size_t rewritten = 0;
  for (uint64_t i = 0; i < sb.segment_count; ++i) {
    const size_t offset =
        sb.segment_table_offset + i * sizeof(storage::SegmentEntry);
    storage::SegmentEntry entry;
    std::memcpy(&entry, bytes.data() + offset, sizeof(entry));
    if (entry.kind != static_cast<uint32_t>(storage::SegmentKind::kLandmarks)) {
      continue;
    }
    auto view = storage::SegmentView::Parse(
        {reinterpret_cast<const std::byte*>(bytes.data() + entry.offset),
         entry.length});
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    // Array 4 is the meta array [nodes, k, generation].
    auto meta = view->GetArray<uint64_t>(4);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    ASSERT_EQ(meta->size(), 3u);
    const uint64_t generation = 7;
    std::memcpy(bytes.data() +
                    (reinterpret_cast<const char*>(meta->data() + 2) -
                     bytes.data()),
                &generation, sizeof(generation));
    entry.checksum =
        storage::Fnv1a64(bytes.data() + entry.offset, entry.length);
    std::memcpy(bytes.data() + offset, &entry, sizeof(entry));
    ++rewritten;
  }
  ASSERT_EQ(rewritten, 1u) << "expected one landmark segment";
  sb.landmark_generation = 7;
  sb.segment_table_checksum = storage::Fnv1a64(
      bytes.data() + sb.segment_table_offset,
      sb.segment_count * sizeof(storage::SegmentEntry));
  sb.checksum = storage::Fnv1a64(&sb, offsetof(storage::Superblock, checksum));
  std::memcpy(bytes.data(), &sb, sizeof(sb));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LandmarkCache* cache = (*loaded)->meta_documents().landmarks.Snapshot();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->num_landmarks(),
            original->meta_documents().landmarks.Snapshot()->num_landmarks());
  const graph::Digraph g = collection->BuildGraph();
  for (NodeId a = 0; a < g.NumNodes(); a += 37) {
    for (NodeId b = 0; b < g.NumNodes(); b += 41) {
      (*loaded)->SetLandmarksEnabled(false);
      const Distance blind = (*loaded)->FindDistance(a, b);
      (*loaded)->SetLandmarksEnabled(true);
      EXPECT_EQ((*loaded)->FindDistance(a, b), blind) << a << "->" << b;
    }
  }
}

TEST(LandmarkSelectionTest, DeterministicAndSpread) {
  const auto collection = workload::GenerateSynthetic({.seed = 66});
  ASSERT_TRUE(collection.ok());
  const graph::Digraph g = collection->BuildGraph();
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 40, 8);
  const auto& set = flix->meta_documents();
  const LandmarkCache first = LandmarkCache::Build(g, set, 8);
  const LandmarkCache second = LandmarkCache::Build(g, set, 8);
  ASSERT_EQ(first.num_landmarks(), second.num_landmarks());
  EXPECT_EQ(std::vector<NodeId>(first.landmarks().begin(),
                                first.landmarks().end()),
            std::vector<NodeId>(second.landmarks().begin(),
                                second.landmarks().end()));
  // One landmark per partition at most: farthest-point seeding never
  // revisits a partition it already covered.
  std::set<uint32_t> partitions;
  for (const NodeId l : first.landmarks()) {
    EXPECT_TRUE(partitions.insert(set.meta_of_node[l]).second);
  }
}

}  // namespace
}  // namespace flix::core
