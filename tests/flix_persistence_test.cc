// Persistence round-trips: binary I/O primitives (the .flxc collection
// format), every index strategy's segment, and a full Flix save/load through
// the paged (mmap, zero-copy) FLIXPG01 format whose loaded instance must
// answer queries exactly like the freshly built one. Segment-level fuzzing
// proves the load-time structural checks: flipped bytes give an error or a
// working index, never a crash.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/validator.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "flix/adapt.h"
#include "flix/flix.h"
#include "index/apex.h"
#include "index/hopi.h"
#include "index/path_index.h"
#include "index/ppo.h"
#include "storage/format.h"
#include "storage/segment.h"
#include "workload/synthetic_generator.h"

namespace flix {
namespace {

TEST(BinaryIoTest, PodAndStringRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(1ULL << 40);
  writer.WriteI32(-17);
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteString("hello \0 world");
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64(), 1ULL << 40);
  EXPECT_EQ(reader.ReadI32(), -17);
  EXPECT_TRUE(reader.ReadBool());
  EXPECT_FALSE(reader.ReadBool());
  EXPECT_EQ(reader.ReadString(), std::string("hello \0 world"));
  EXPECT_TRUE(reader.ok());
}

TEST(BinaryIoTest, VecRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  const std::vector<uint32_t> flat = {1, 2, 3};
  const std::vector<std::vector<int32_t>> nested = {{-1}, {}, {5, 6}};
  writer.WriteVec(flat);
  writer.WriteNestedVec(nested);

  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadVec<uint32_t>(), flat);
  EXPECT_EQ(reader.ReadNestedVec<int32_t>(), nested);
  EXPECT_TRUE(reader.ok());
}

TEST(BinaryIoTest, TruncatedInputFailsGracefully) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU64(1000000);  // claims a million entries, provides none
  BinaryReader reader(stream);
  const auto v = reader.ReadVec<uint64_t>();
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(reader.failed());
}

TEST(BinaryIoTest, HugeClaimedSizeRejected) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU64(UINT64_MAX);  // absurd element count
  BinaryReader reader(stream);
  (void)reader.ReadVec<uint64_t>();
  EXPECT_TRUE(reader.failed());
}

graph::Digraph RandomGraph(size_t n, size_t edges, uint64_t seed) {
  Rng rng(seed);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(4)));
  for (size_t e = 0; e < edges; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
              static_cast<NodeId>(rng.Uniform(n)),
              rng.Bernoulli(0.3) ? graph::EdgeKind::kLink
                                 : graph::EdgeKind::kTree);
  }
  return g;
}

TEST(PersistenceTest, DigraphRoundTrip) {
  const graph::Digraph g = RandomGraph(30, 60, 5);
  storage::SegmentWriter seg;
  g.AppendArrays(seg, /*base_id=*/0);
  const std::vector<std::byte> blob = seg.Finish();
  auto view = storage::SegmentView::Parse({blob.data(), blob.size()});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto loaded_or = graph::Digraph::FromSegment(*view, 0, /*verify=*/true);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const graph::Digraph& loaded = *loaded_or;
  ASSERT_EQ(loaded.NumNodes(), g.NumNodes());
  ASSERT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded.NumLinkEdges(), g.NumLinkEdges());
  EXPECT_EQ(loaded.Edges(), g.Edges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(loaded.Tag(v), g.Tag(v));
  }
}

// Round-trips one index through SaveIndexSegment/LoadIndexSegment (with the
// structural checks on) and compares answers.
void CheckIndexRoundTrip(const index::PathIndex& original,
                         const graph::Digraph& g) {
  storage::SegmentWriter seg;
  index::SaveIndexSegment(original, seg);
  const std::vector<std::byte> blob = seg.Finish();
  auto view = storage::SegmentView::Parse({blob.data(), blob.size()});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto loaded = index::LoadIndexSegment(*view, original.kind(), g,
                                        /*verify=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->kind(), original.kind());

  for (NodeId u = 0; u < g.NumNodes(); u += 3) {
    EXPECT_EQ((*loaded)->Descendants(u), original.Descendants(u));
    for (TagId tag = 0; tag < 4; ++tag) {
      EXPECT_EQ((*loaded)->DescendantsByTag(u, tag),
                original.DescendantsByTag(u, tag));
      EXPECT_EQ((*loaded)->AncestorsByTag(u, tag),
                original.AncestorsByTag(u, tag));
    }
    for (NodeId v = 0; v < g.NumNodes(); v += 4) {
      EXPECT_EQ((*loaded)->DistanceBetween(u, v),
                original.DistanceBetween(u, v));
    }
  }
}

TEST(PersistenceTest, PpoRoundTrip) {
  Rng rng(9);
  graph::Digraph g;
  for (int i = 0; i < 40; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(4)));
  for (NodeId i = 1; i < 40; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(i)), i);
  }
  auto built = index::PpoIndex::Build(g);
  ASSERT_TRUE(built.ok());
  CheckIndexRoundTrip(**built, g);
}

TEST(PersistenceTest, HopiRoundTrip) {
  const graph::Digraph g = RandomGraph(50, 110, 11);
  const auto built = index::HopiIndex::Build(g);
  CheckIndexRoundTrip(*built, g);
}

TEST(PersistenceTest, ApexRoundTrip) {
  const graph::Digraph g = RandomGraph(50, 110, 13);
  const auto built = index::ApexIndex::Build(g);
  CheckIndexRoundTrip(*built, g);
}

// Strategy kinds no loader knows: 3 and 4 were once assigned to the
// materialized transitive closure and the structure summaries, neither of
// which the selector could pick; 999 was never assigned.
constexpr uint32_t kUnknownStrategyKinds[] = {3, 4, 999};

TEST(PersistenceTest, LoadIndexSegmentRejectsUnknownKind) {
  graph::Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddEdge(0, 1);
  auto built = index::PpoIndex::Build(g);
  ASSERT_TRUE(built.ok());
  storage::SegmentWriter seg;
  (*built)->SaveSegment(seg);
  const std::vector<std::byte> blob = seg.Finish();
  auto view = storage::SegmentView::Parse({blob.data(), blob.size()});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // The same segment loads under its own kind...
  ASSERT_TRUE(
      index::LoadIndexSegment(*view, index::StrategyKind::kPpo, g, true).ok());
  // ...and is rejected, not misparsed, under any kind no loader knows.
  for (const uint32_t kind : kUnknownStrategyKinds) {
    const auto loaded = index::LoadIndexSegment(
        *view, static_cast<index::StrategyKind>(kind), g, /*verify=*/true);
    ASSERT_FALSE(loaded.ok()) << "kind " << kind;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "kind " << kind;
  }
}

// ---------------------------------------------------------------------------
// Segment-level fuzzing of the load-time structural checks. A file-level
// fuzz cannot reach them: a flipped byte fails its segment checksum first.
// Here bytes of one SegmentWriter payload are flipped directly and loaded
// with the checks on; the result must be an error or a structure whose
// every query stays in bounds (the ASan leg runs this suite, so an
// out-of-bounds read fails it).

constexpr int kSegmentFuzzTrials = 300;

// Overwrites 1-4 random bytes of `blob`.
std::vector<std::byte> FlipBytes(const std::vector<std::byte>& blob,
                                 Rng& rng) {
  std::vector<std::byte> mutated = blob;
  const int flips = 1 + static_cast<int>(rng.Uniform(4));
  for (int f = 0; f < flips; ++f) {
    mutated[rng.Uniform(mutated.size())] =
        static_cast<std::byte>(rng.Uniform(256));
  }
  return mutated;
}

// Runs every query class of `index` from every node of `g`.
void ExerciseIndex(const index::PathIndex& index, const graph::Digraph& g) {
  const NodeId n = static_cast<NodeId>(g.NumNodes());
  std::vector<NodeId> probe_set;
  for (NodeId v = 0; v < n; v += 3) probe_set.push_back(v);
  for (NodeId u = 0; u < n; ++u) {
    (void)index.Descendants(u);
    (void)index.DescendantsByTag(u, u % 4);
    (void)index.AncestorsByTag(u, u % 4);
    (void)index.ReachableAmong(u, probe_set);
    (void)index.AncestorsAmong(u, probe_set);
    (void)index::DrainCursor(*index.DescendantsCursor(u));
    (void)index::DrainCursor(*index.DescendantsByTagCursor(u, u % 4));
    (void)index::DrainCursor(*index.AncestorsByTagCursor(u, u % 4));
    (void)index.DistanceBetween(u, (u * 7 + 3) % n);
    (void)index.IsReachable((u * 5 + 1) % n, u);
  }
}

// Fuzzes `original`'s segment; returns how many trials the strategy's own
// loader (not the segment directory parse) rejected.
size_t FuzzIndexSegment(const index::PathIndex& original,
                        const graph::Digraph& g, uint64_t seed) {
  storage::SegmentWriter seg;
  index::SaveIndexSegment(original, seg);
  const std::vector<std::byte> blob = seg.Finish();
  Rng rng(seed);
  size_t rejected_by_loader = 0;
  for (int trial = 0; trial < kSegmentFuzzTrials; ++trial) {
    const std::vector<std::byte> mutated = FlipBytes(blob, rng);
    auto view = storage::SegmentView::Parse({mutated.data(), mutated.size()});
    if (!view.ok()) continue;
    auto loaded = index::LoadIndexSegment(*view, original.kind(), g,
                                          /*verify=*/true);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      ++rejected_by_loader;
      continue;
    }
    ExerciseIndex(**loaded, g);
  }
  return rejected_by_loader;
}

TEST(SegmentFuzzTest, PpoFlippedBytesNeverCrash) {
  Rng rng(21);
  graph::Digraph g;
  for (int i = 0; i < 60; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(4)));
  for (NodeId i = 1; i < 60; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(i)), i);
  }
  auto built = index::PpoIndex::Build(g);
  ASSERT_TRUE(built.ok());
  EXPECT_GT(FuzzIndexSegment(**built, g, 201), 0u);
}

TEST(SegmentFuzzTest, HopiFlippedBytesNeverCrash) {
  const graph::Digraph g = RandomGraph(50, 110, 23);
  const auto built = index::HopiIndex::Build(g);
  EXPECT_GT(FuzzIndexSegment(*built, g, 203), 0u);
}

TEST(SegmentFuzzTest, ApexFlippedBytesNeverCrash) {
  const graph::Digraph g = RandomGraph(50, 110, 25);
  const auto built = index::ApexIndex::Build(g);
  EXPECT_GT(FuzzIndexSegment(*built, g, 205), 0u);
}

TEST(SegmentFuzzTest, DigraphFlippedBytesNeverCrash) {
  const graph::Digraph g = RandomGraph(60, 140, 29);
  storage::SegmentWriter seg;
  g.AppendArrays(seg, /*base_id=*/0);
  const std::vector<std::byte> blob = seg.Finish();
  Rng rng(209);
  size_t rejected_by_loader = 0;
  for (int trial = 0; trial < kSegmentFuzzTrials; ++trial) {
    const std::vector<std::byte> mutated = FlipBytes(blob, rng);
    auto view = storage::SegmentView::Parse({mutated.data(), mutated.size()});
    if (!view.ok()) continue;
    auto loaded = graph::Digraph::FromSegment(*view, 0, /*verify=*/true);
    if (!loaded.ok()) {
      ++rejected_by_loader;
      continue;
    }
    // Every arc of every node, both directions, plus a full BFS.
    for (NodeId v = 0; v < loaded->NumNodes(); ++v) {
      for (const graph::Digraph::Arc& arc : loaded->OutArcs(v)) {
        (void)loaded->Tag(arc.target);
      }
      for (const graph::Digraph::Arc& arc : loaded->InArcs(v)) {
        (void)loaded->Tag(arc.target);
      }
    }
    if (loaded->NumNodes() > 0) {
      (void)graph::BfsDistances(*loaded, 0, graph::Direction::kForward);
    }
  }
  EXPECT_GT(rejected_by_loader, 0u);
}

TEST(CollectionPersistenceTest, RoundTripPreservesEverything) {
  const auto original = workload::GenerateSynthetic({.seed = 87});
  ASSERT_TRUE(original.ok());

  std::stringstream stream;
  ASSERT_TRUE(original->Save(stream).ok());
  auto loaded = xml::Collection::Load(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->NumDocuments(), original->NumDocuments());
  ASSERT_EQ(loaded->NumElements(), original->NumElements());
  EXPECT_EQ(loaded->pool().size(), original->pool().size());
  for (TagId t = 0; t < original->pool().size(); ++t) {
    EXPECT_EQ(loaded->pool().Name(t), original->pool().Name(t));
  }
  for (DocId d = 0; d < original->NumDocuments(); ++d) {
    const xml::Document& a = original->document(d);
    const xml::Document& b = loaded->document(d);
    ASSERT_EQ(b.name(), a.name());
    ASSERT_EQ(b.NumElements(), a.NumElements());
    for (xml::ElementId e = 0; e < a.NumElements(); ++e) {
      EXPECT_EQ(b.element(e).tag, a.element(e).tag);
      EXPECT_EQ(b.element(e).parent, a.element(e).parent);
      EXPECT_EQ(b.element(e).children, a.element(e).children);
      EXPECT_EQ(b.element(e).attributes, a.element(e).attributes);
      EXPECT_EQ(b.element(e).text, a.element(e).text);
    }
  }
  EXPECT_EQ(loaded->links().links, original->links().links);

  // Anchors survive: resolving links again gives the same set.
  loaded->ResolveAllLinks();
  EXPECT_EQ(loaded->links().links, original->links().links);

  // The element graphs are identical, so a saved index works with either.
  const graph::Digraph g1 = original->BuildGraph();
  const graph::Digraph g2 = loaded->BuildGraph();
  EXPECT_EQ(g2.Edges(), g1.Edges());
}

TEST(CollectionPersistenceTest, IndexSavedAgainstLoadedCollection) {
  // Build against the original, save both, load both, query via the loaded
  // pair — the workflow flixctl uses.
  const auto original = workload::GenerateSynthetic({.seed = 89});
  ASSERT_TRUE(original.ok());
  auto flix = core::Flix::Build(*original, {});
  ASSERT_TRUE(flix.ok());

  std::stringstream coll_stream;
  ASSERT_TRUE(original->Save(coll_stream).ok());
  const std::string index_path =
      (std::filesystem::path(::testing::TempDir()) / "saved_against.flix")
          .string();
  ASSERT_TRUE((*flix)->Save(index_path).ok());

  auto loaded_collection = xml::Collection::Load(coll_stream);
  ASSERT_TRUE(loaded_collection.ok());
  auto loaded_flix = core::Flix::Load(index_path, *loaded_collection);
  ASSERT_TRUE(loaded_flix.ok()) << loaded_flix.status().ToString();

  const NodeId start = loaded_collection->GlobalId(0, 0);
  EXPECT_EQ((*loaded_flix)->FindDescendantsByName(start, "t0"),
            (*flix)->FindDescendantsByName(start, "t0"));
}

TEST(CollectionPersistenceTest, RejectsGarbage) {
  std::stringstream stream("garbage bytes");
  EXPECT_FALSE(xml::Collection::Load(stream).ok());
}

// ---------------------------------------------------------------------------
// Paged (mmap) format

std::string PagedTempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// Compares every query class the facade offers between two instances built
// over the same collection. Heavier than the spot checks above because the
// paged read path is entirely new code: views must agree with heap answers
// everywhere, not just on a sample.
void ExpectSameAnswers(const core::Flix& a, const core::Flix& b,
                       const xml::Collection& collection) {
  const graph::Digraph g = collection.BuildGraph();
  for (const char* tag : {"t0", "t1", "doc", "xref"}) {
    for (DocId d = 0; d < collection.NumDocuments(); d += 3) {
      const NodeId start = collection.GlobalId(d, 0);
      EXPECT_EQ(b.FindDescendantsByName(start, tag),
                a.FindDescendantsByName(start, tag))
          << "descendants, tag " << tag << " doc " << d;
      EXPECT_EQ(b.FindAncestorsByName(start, tag),
                a.FindAncestorsByName(start, tag))
          << "ancestors, tag " << tag << " doc " << d;
    }
  }
  for (NodeId u = 0; u < g.NumNodes(); u += 37) {
    for (NodeId v = 0; v < g.NumNodes(); v += 41) {
      EXPECT_EQ(b.IsConnected(u, v), a.IsConnected(u, v));
      EXPECT_EQ(b.FindDistance(u, v), a.FindDistance(u, v));
    }
  }
}

class PagedPersistenceTest
    : public ::testing::TestWithParam<core::MdbConfig> {};

TEST_P(PagedPersistenceTest, MappedRoundTrip) {
  const auto collection = workload::GenerateSynthetic({.seed = 81});
  ASSERT_TRUE(collection.ok());
  core::FlixOptions options;
  options.config = GetParam();
  options.partition_bound = 80;
  auto original = core::Flix::Build(*collection, options);
  ASSERT_TRUE(original.ok());

  const std::string path = PagedTempPath(
      std::string("mapped_roundtrip_") +
      std::string(core::MdbConfigName(GetParam())) + ".flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());

  auto loaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The load is zero-copy: every meta-document table is a view into the
  // mapping, not a heap copy.
  const core::MetaDocumentSet& set = (*loaded)->meta_documents();
  EXPECT_TRUE(set.meta_of_node.is_view());
  EXPECT_TRUE(set.local_of_node.is_view());
  ASSERT_FALSE(set.docs.empty());
  for (const core::MetaDocument& meta : set.docs) {
    EXPECT_TRUE(meta.global_nodes.is_view());
    EXPECT_TRUE(meta.graph.is_view());
  }

  // Same structure as the original...
  EXPECT_EQ((*loaded)->stats().num_meta_documents,
            (*original)->stats().num_meta_documents);
  EXPECT_EQ((*loaded)->stats().num_cross_links,
            (*original)->stats().num_cross_links);
  EXPECT_EQ((*loaded)->stats().num_ppo, (*original)->stats().num_ppo);
  EXPECT_EQ((*loaded)->stats().num_hopi, (*original)->stats().num_hopi);
  EXPECT_EQ((*loaded)->stats().num_apex, (*original)->stats().num_apex);

  // ...identical answers everywhere...
  ExpectSameAnswers(**original, **loaded, *collection);

  // ...and the full correctness tooling holds on the mapped views: the
  // structural validator (deep) plus the differential query oracle.
  check::CheckOptions check_options;
  check_options.index.deep = true;
  const check::CheckReport report =
      check::ValidateFramework(**loaded, check_options);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  const check::OracleReport oracle = check::RunDifferentialOracle(**loaded);
  EXPECT_TRUE(oracle.ok()) << oracle.diffs.front();
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PagedPersistenceTest,
    ::testing::Values(core::MdbConfig::kNaive, core::MdbConfig::kMaximalPpo,
                      core::MdbConfig::kUnconnectedHopi,
                      core::MdbConfig::kHybrid),
    [](const ::testing::TestParamInfo<core::MdbConfig>& info) {
      return std::string(core::MdbConfigName(info.param));
    });

TEST(PagedPersistenceTest, OptionsRoundTripThroughSuperblock) {
  const auto collection = workload::GenerateSynthetic({.seed = 91});
  ASSERT_TRUE(collection.ok());
  core::FlixOptions options;
  options.config = core::MdbConfig::kUnconnectedHopi;
  options.partition_bound = 123;
  options.query_cache_capacity = 7;
  options.element_level_partitions = true;
  auto original = core::Flix::Build(*collection, options);
  ASSERT_TRUE(original.ok());

  const std::string path = PagedTempPath("options_superblock.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());
  auto loaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->options().config, options.config);
  EXPECT_EQ((*loaded)->options().partition_bound, options.partition_bound);
  EXPECT_EQ((*loaded)->options().query_cache_capacity, 7u);
  EXPECT_TRUE((*loaded)->options().element_level_partitions);
  ASSERT_NE((*loaded)->query_cache(), nullptr);
}

TEST(PagedPersistenceTest, SkippingChecksumVerificationStillLoads) {
  const auto collection = workload::GenerateSynthetic({.seed = 95});
  ASSERT_TRUE(collection.ok());
  auto original = core::Flix::Build(*collection, {});
  ASSERT_TRUE(original.ok());
  const std::string path = PagedTempPath("no_verify.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());

  core::Flix::LoadOptions load_options;
  load_options.verify_checksums = false;
  auto loaded = core::Flix::Load(path, *collection, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const NodeId start = collection->GlobalId(0, 0);
  EXPECT_EQ((*loaded)->FindDescendantsByName(start, "t0"),
            (*original)->FindDescendantsByName(start, "t0"));
}

TEST(PagedPersistenceTest, MappedLoadRejectsWrongCollection) {
  const auto collection = workload::GenerateSynthetic({.seed = 83});
  ASSERT_TRUE(collection.ok());
  auto original = core::Flix::Build(*collection, {});
  ASSERT_TRUE(original.ok());
  const std::string path = PagedTempPath("wrong_collection.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());

  const auto other = workload::GenerateSynthetic({.seed = 84, .tree_docs = 2});
  ASSERT_TRUE(other.ok());
  const auto loaded = core::Flix::Load(path, *other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// The adaptive ISS must work on a mapped instance: the migrator builds an
// ordinary heap index and publishes it over the mapped base; afterwards the
// instance re-saves cleanly over its own backing file (the temp-file+rename
// path — overwriting a live mapping in place would fault).
TEST(PagedPersistenceTest, AdaptiveMigrationOnMappedInstance) {
  const auto collection = workload::GenerateSynthetic({.seed = 97});
  ASSERT_TRUE(collection.ok());
  core::FlixOptions options;
  options.config = core::MdbConfig::kHybrid;
  options.partition_bound = 80;
  auto original = core::Flix::Build(*collection, options);
  ASSERT_TRUE(original.ok());

  const std::string path = PagedTempPath("adapt_mapped.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());
  auto loaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::Flix& flix = **loaded;
  flix.SetAdaptiveIss(true);

  // Migrate the first partition that is not already HOPI (all-HOPI builds
  // fall back to an APEX migration) — proves ReplacePartitionIndex layers a
  // heap index over the mapped base.
  const core::MetaDocumentSet& set = flix.meta_documents();
  ASSERT_FALSE(set.docs.empty());
  core::Recommendation rec;
  rec.best = index::StrategyKind::kHopi;
  rec.migrate = true;
  rec.partition = 0;
  for (uint32_t p = 0; p < set.docs.size(); ++p) {
    if (set.docs[p].index.Acquire()->kind() != index::StrategyKind::kHopi) {
      rec.partition = p;
      break;
    }
  }
  if (set.docs[rec.partition].index.Acquire()->kind() ==
      index::StrategyKind::kHopi) {
    rec.best = index::StrategyKind::kApex;
  }
  rec.current = set.docs[rec.partition].index.Acquire()->kind();

  core::StrategyMigrator migrator(flix);
  ASSERT_TRUE(migrator.Migrate(rec).ok());
  EXPECT_EQ(set.docs[rec.partition].index.Acquire()->kind(), rec.best);

  // Queries still match the freshly built instance after the swap.
  ExpectSameAnswers(**original, flix, *collection);

  // Re-save over the live mapping, then reload the new file.
  ASSERT_TRUE(flix.Save(path, core::Flix::IndexFormat::kMapped).ok());
  auto reloaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)
                ->meta_documents()
                .docs[rec.partition]
                .index.Acquire()
                ->kind(),
            rec.best);
  ExpectSameAnswers(**original, **reloaded, *collection);
}

TEST(PagedPersistenceTest, PathLoadRejectsMissingAndGarbageFiles) {
  const auto collection = workload::GenerateSynthetic({.seed = 85});
  ASSERT_TRUE(collection.ok());
  EXPECT_FALSE(
      core::Flix::Load(PagedTempPath("nonexistent.flix"), *collection).ok());

  const std::string path = PagedTempPath("garbage_path.flix");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is neither a stream nor a paged index";
  }
  EXPECT_FALSE(core::Flix::Load(path, *collection).ok());
}

// A file of the retired stream format is named as such, so the operator
// rebuilds it instead of suspecting corruption.
TEST(PagedPersistenceTest, RetiredStreamFileIsRejected) {
  const auto collection = workload::GenerateSynthetic({.seed = 85});
  ASSERT_TRUE(collection.ok());
  const std::string path = PagedTempPath("retired_stream.flix");
  {
    // The old header: magic, version 2, then option fields.
    const uint32_t header[] = {storage::kRetiredStreamMagic, 2, 3, 0};
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  const auto loaded = core::Flix::Load(path, *collection);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const std::string message(loaded.status().message());
  EXPECT_NE(message.find("retired stream format"), std::string::npos)
      << message;
  EXPECT_NE(message.find("rebuild"), std::string::npos) << message;
}

}  // namespace
}  // namespace flix
