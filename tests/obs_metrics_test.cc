// Tests for the observability layer (src/obs/) and its wiring into the
// FliX engine: histogram bucketing and quantiles, registry identity and
// reset semantics, trace spans, the JSON/text exporters (including the
// snapshot → JSON → snapshot round trip), QueryStats population by the PEE,
// and the query cache's stats surface.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "flix/flix.h"
#include "flix/query_cache.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/collection.h"

namespace flix {
namespace {

using core::Flix;
using core::FlixOptions;
using core::QueryCache;
using core::QueryStats;
using core::Result;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramStats;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddNegative) {
  Gauge g;
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
  g.Add(15);
  EXPECT_EQ(g.Value(), 10);
}

TEST(HistogramTest, BucketMappingRoundTrips) {
  // The lower bound of every bucket must map back to that bucket, and the
  // mapping must be monotonic in the value.
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketLowerBound(b)), b) << b;
  }
  size_t last = 0;
  for (uint64_t v = 0; v < 100000; v += 17) {
    const size_t b = Histogram::BucketFor(v);
    EXPECT_GE(b, last);
    last = b;
  }
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(15), 15u);
  EXPECT_LT(Histogram::BucketFor(UINT64_MAX), Histogram::kNumBuckets);
}

TEST(HistogramTest, QuantilesWithinBucketError) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramStats stats = h.Snapshot();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_EQ(stats.sum, 500500u);
  EXPECT_EQ(stats.min, 1u);
  EXPECT_EQ(stats.max, 1000u);
  EXPECT_DOUBLE_EQ(stats.mean, 500.5);
  // 8 sub-buckets per octave bound the relative quantile error by 12.5%
  // (plus the sample itself as a lower bound, since we report bucket upper
  // bounds clamped to the max).
  EXPECT_GE(stats.p50, 500);
  EXPECT_LE(stats.p50, 500 * 1.125 + 1);
  EXPECT_GE(stats.p95, 950);
  EXPECT_LE(stats.p95, 950 * 1.125 + 1);
  EXPECT_GE(stats.p99, 990);
  EXPECT_LE(stats.p99, 1000);  // clamped to the observed max
}

TEST(HistogramTest, SingleSampleReportsItself) {
  Histogram h;
  h.Record(12345);
  const HistogramStats stats = h.Snapshot();
  EXPECT_EQ(stats.min, 12345u);
  EXPECT_EQ(stats.max, 12345u);
  EXPECT_DOUBLE_EQ(stats.p50, 12345);
  EXPECT_DOUBLE_EQ(stats.p99, 12345);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramStats stats = h.Snapshot();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.max, 0u);
  EXPECT_DOUBLE_EQ(stats.p50, 0);
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  EXPECT_EQ(h.Snapshot().max, kThreads * kPerThread - 1);
}

TEST(MetricsRegistryTest, SameNameSameObjectAndResetKeepsReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.counter");
  Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
  a.Add(7);
  registry.GetGauge("test.gauge").Set(3);
  registry.GetHistogram("test.hist").Record(100);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_NE(snapshot.FindCounter("test.counter"), nullptr);
  EXPECT_EQ(*snapshot.FindCounter("test.counter"), 7u);
  ASSERT_NE(snapshot.FindGauge("test.gauge"), nullptr);
  EXPECT_EQ(*snapshot.FindGauge("test.gauge"), 3);
  ASSERT_NE(snapshot.FindHistogram("test.hist"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("test.hist")->count, 1u);
  EXPECT_EQ(snapshot.FindCounter("no.such"), nullptr);

  registry.Reset();
  // Registration and references survive, values are zeroed.
  EXPECT_EQ(a.Value(), 0u);
  a.Increment();
  EXPECT_EQ(*registry.Snapshot().FindCounter("test.counter"), 1u);
}

TEST(TraceSpanTest, RecordsIntoHistogramAndLog) {
  Histogram h;
  std::ostringstream log;
  obs::SetTraceLog(&log);
  EXPECT_TRUE(obs::TraceLogEnabled());
  {
    obs::TraceSpan span(&h, "test.span");
    EXPECT_GE(span.ElapsedNanos(), 0u);
  }
  obs::SetTraceLog(nullptr);
  EXPECT_FALSE(obs::TraceLogEnabled());
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_NE(log.str().find("[trace] test.span dur_ns="), std::string::npos);
}

TEST(TraceSpanTest, CancelDropsTheSample) {
  Histogram h;
  {
    obs::TraceSpan span(&h, "cancelled");
    span.Cancel();
  }
  EXPECT_EQ(h.Count(), 0u);
}

TEST(ExportTest, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("rt.queries").Add(1234);
  registry.GetGauge("rt.cache_size").Set(-9);
  Histogram& h = registry.GetHistogram("rt.latency_ns");
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v * 1000);

  const MetricsSnapshot before = registry.Snapshot();
  const std::string json = obs::ToJson(before);
  MetricsSnapshot after;
  ASSERT_TRUE(obs::FromJson(json, &after)) << json;

  ASSERT_EQ(after.counters.size(), before.counters.size());
  EXPECT_EQ(after.counters[0].first, "rt.queries");
  EXPECT_EQ(after.counters[0].second, 1234u);
  ASSERT_EQ(after.gauges.size(), before.gauges.size());
  EXPECT_EQ(after.gauges[0].second, -9);
  ASSERT_EQ(after.histograms.size(), before.histograms.size());
  const HistogramStats& b = before.histograms[0].second;
  const HistogramStats& a = after.histograms[0].second;
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);

  // A second round trip is bit-identical.
  EXPECT_EQ(obs::ToJson(after), json);
}

TEST(ExportTest, P999AndBucketsRoundTripExactly) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("rt.wide_ns");
  for (uint64_t v = 0; v < 2000; ++v) h.Record(v * v);
  const MetricsSnapshot before = registry.Snapshot();
  const HistogramStats& b = before.histograms[0].second;
  EXPECT_GE(b.p999, b.p99);
  ASSERT_FALSE(b.buckets.empty());
  uint64_t bucket_total = 0;
  for (const auto& [index, count] : b.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, b.count);

  const std::string json = obs::ToJson(before);
  MetricsSnapshot after;
  ASSERT_TRUE(obs::FromJson(json, &after)) << json;
  const HistogramStats& a = after.histograms[0].second;
  EXPECT_EQ(a.p999, b.p999);
  EXPECT_EQ(a.buckets, b.buckets);
  // Quantiles recomputed from the parsed buckets reproduce themselves: the
  // sparse representation carries the full quantile information.
  HistogramStats recomputed = a;
  obs::RecomputeQuantilesFromBuckets(recomputed);
  EXPECT_EQ(recomputed.p50, a.p50);
  EXPECT_EQ(recomputed.p95, a.p95);
  EXPECT_EQ(recomputed.p99, a.p99);
  EXPECT_EQ(recomputed.p999, a.p999);
}

TEST(ExportTest, FromJsonToleratesOldSchemaWithoutP999OrBuckets) {
  // A document written before p999/buckets existed must still parse, with
  // the new fields defaulting to zero/empty.
  MetricsSnapshot snapshot;
  ASSERT_TRUE(obs::FromJson(
      "{\"counters\":{},\"gauges\":{},\"histograms\":{\"old.h\":"
      "{\"count\":4,\"sum\":100,\"min\":10,\"max\":40,\"mean\":25,"
      "\"p50\":20,\"p95\":40,\"p99\":40}}}",
      &snapshot));
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramStats& h = snapshot.histograms[0].second;
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.p999, 0.0);
  EXPECT_TRUE(h.buckets.empty());
}

TEST(ExportTest, FromJsonRejectsBadBucketLists) {
  const char* kPrefix =
      "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h\":"
      "{\"count\":2,\"sum\":3,\"min\":1,\"max\":2,\"mean\":1.5,"
      "\"p50\":1,\"p95\":2,\"p99\":2,\"p999\":2,\"buckets\":";
  MetricsSnapshot snapshot;
  // Non-ascending and duplicate bucket indices violate the writer's order.
  EXPECT_FALSE(obs::FromJson(
      std::string(kPrefix) + "[[5,1],[3,1]]}}}", &snapshot));
  EXPECT_FALSE(obs::FromJson(
      std::string(kPrefix) + "[[3,1],[3,1]]}}}", &snapshot));
  // Bucket index beyond the histogram's range.
  EXPECT_FALSE(obs::FromJson(
      std::string(kPrefix) + "[[99999,2]]}}}", &snapshot));
  // The well-formed variant parses.
  EXPECT_TRUE(obs::FromJson(
      std::string(kPrefix) + "[[3,1],[5,1]]}}}", &snapshot));
}

TEST(HistogramMergeTest, MergeWithBucketsRecomputesQuantiles) {
  Histogram low;
  Histogram high;
  Histogram both;
  for (uint64_t v = 1; v <= 100; ++v) {
    low.Record(v);
    both.Record(v);
  }
  for (uint64_t v = 100000; v <= 100100; ++v) {
    high.Record(v);
    both.Record(v);
  }
  HistogramStats merged = low.Snapshot();
  obs::MergeHistogramStats(merged, high.Snapshot());
  const HistogramStats expected = both.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.min, expected.min);
  EXPECT_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_EQ(merged.p50, expected.p50);
  EXPECT_EQ(merged.p95, expected.p95);
  EXPECT_EQ(merged.p99, expected.p99);
  EXPECT_EQ(merged.p999, expected.p999);
}

TEST(HistogramMergeTest, MergeHandlesEmptySidesAndOldSchema) {
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);
  const HistogramStats full = h.Snapshot();

  HistogramStats into;  // empty target: plain copy
  obs::MergeHistogramStats(into, full);
  EXPECT_EQ(into.count, full.count);
  EXPECT_EQ(into.buckets, full.buckets);

  HistogramStats unchanged = full;  // empty source: no-op
  obs::MergeHistogramStats(unchanged, HistogramStats{});
  EXPECT_EQ(unchanged.count, full.count);
  EXPECT_EQ(unchanged.p99, full.p99);

  // Old-schema side (no buckets): counts still add, quantiles fall back to
  // the conservative pairwise max, and the merged stats carry no buckets.
  HistogramStats old_schema = full;
  old_schema.buckets.clear();
  HistogramStats mixed = full;
  obs::MergeHistogramStats(mixed, old_schema);
  EXPECT_EQ(mixed.count, 2 * full.count);
  EXPECT_TRUE(mixed.buckets.empty());
  EXPECT_EQ(mixed.p95, full.p95);
}

TEST(ExportTest, FromJsonRejectsGarbage) {
  MetricsSnapshot snapshot;
  EXPECT_FALSE(obs::FromJson("", &snapshot));
  EXPECT_FALSE(obs::FromJson("{}", &snapshot));
  EXPECT_FALSE(obs::FromJson("[1,2]", &snapshot));
  EXPECT_FALSE(obs::FromJson(
      "{\"counters\":{},\"gauges\":{},\"histograms\":{}} trailing", &snapshot));
  // Wrong section order is not our schema.
  EXPECT_FALSE(obs::FromJson(
      "{\"gauges\":{},\"counters\":{},\"histograms\":{}}", &snapshot));
  // The empty document is valid.
  EXPECT_TRUE(obs::FromJson(
      "{\"counters\":{},\"gauges\":{},\"histograms\":{}}", &snapshot));
  EXPECT_TRUE(snapshot.counters.empty());
}

TEST(ExportTest, TextContainsNamesAndTimeUnits) {
  MetricsRegistry registry;
  registry.GetCounter("text.count").Add(5);
  registry.GetHistogram("text.latency_ns").Record(2500000);  // 2.5 ms
  const std::string text = obs::ToText(registry.Snapshot());
  EXPECT_NE(text.find("text.count"), std::string::npos);
  EXPECT_NE(text.find("text.latency_ns"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
}

// --- Engine wiring ---------------------------------------------------------

// Same shape as the PEE test fixture: three documents chained by links (with
// a cycle), so a small partition bound forces cross-meta-document hops.
xml::Collection ChainedCollection() {
  xml::Collection c;
  EXPECT_TRUE(c.AddXml("<a><b/><link href=\"d1\"/></a>", "d0").ok());
  EXPECT_TRUE(c.AddXml("<a><b><link href=\"d2#mid\"/></b></a>", "d1").ok());
  EXPECT_TRUE(
      c.AddXml(R"(<a><c id="mid"><b/></c><link href="d0"/></a>)", "d2").ok());
  c.ResolveAllLinks();
  return c;
}

TEST(QueryStatsTest, FindDescendantsPopulatesCounters) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  // Size-bounded partitioning guarantees several meta documents even on
  // this 10-element fixture (Hybrid would fold it into one tree group).
  options.config = core::MdbConfig::kUnconnectedHopi;
  options.partition_bound = 4;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok()) << flix.status().ToString();
  ASSERT_GT((*flix)->stats().num_meta_documents, 1u);

  QueryStats stats;
  const TagId tag_b = c.pool().Lookup("b");
  std::vector<Result> results;
  (*flix)->pee().FindDescendantsByTag(c.GlobalId(0, 0), tag_b, {},
                                      [&](const Result& r) {
                                        results.push_back(r);
                                        return true;
                                      },
                                      &stats);
  EXPECT_FALSE(results.empty());
  // A cross-meta-document query must probe local indexes, process several
  // entry points, and follow at least one link.
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_GT(stats.entries_processed, 0u);
  EXPECT_GT(stats.links_followed, 0u);
}

TEST(QueryStatsTest, EvaluateTypeQueryPopulatesCounters) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = core::MdbConfig::kUnconnectedHopi;
  options.partition_bound = 4;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());

  const std::vector<Result> results = (*flix)->EvaluateTypeQuery("a", "b");
  EXPECT_FALSE(results.empty());
  // The instance's profiler accumulated the per-query counters.
  const obs::PartitionProfile total = (*flix)->Profile().Totals();
  EXPECT_GT(total.index_probes, 0u);
  EXPECT_GT(total.entries_processed, 0u);
  EXPECT_GT(total.entry_fanout, 0u);
}

TEST(QueryStatsTest, GlobalRegistrySeesQueries) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = core::MdbConfig::kUnconnectedHopi;
  options.partition_bound = 4;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());

  auto& reg = MetricsRegistry::Global();
  const uint64_t queries_before = reg.GetCounter("flix.query.count").Value();
  const uint64_t probes_before =
      reg.GetCounter("flix.query.index_probes").Value();
  const uint64_t latency_before =
      reg.GetHistogram("flix.query.latency_ns").Count();

  (*flix)->FindDescendantsByName(c.GlobalId(0, 0), "b");

  EXPECT_EQ(reg.GetCounter("flix.query.count").Value(), queries_before + 1);
  EXPECT_GT(reg.GetCounter("flix.query.index_probes").Value(), probes_before);
  EXPECT_EQ(reg.GetHistogram("flix.query.latency_ns").Count(),
            latency_before + 1);
}

TEST(QueryCacheTest, StatsTrackInsertOverwriteEvictHitMiss) {
  QueryCache cache(2);
  std::vector<Result> results;

  EXPECT_FALSE(cache.Lookup(1, 1, &results));  // miss
  cache.Insert(1, 1, {{10, 1}});               // fresh insert
  cache.Insert(1, 1, {{10, 1}});               // overwrite (same key)
  cache.Insert(2, 1, {{20, 1}});               // fresh insert
  cache.Insert(3, 1, {{30, 1}});               // fresh insert, evicts LRU key 1
  EXPECT_FALSE(cache.Lookup(1, 1, &results));  // miss (evicted)
  EXPECT_TRUE(cache.Lookup(2, 1, &results));   // hit

  const core::QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.overwrites, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0 / 3.0);
}

TEST(FlixMetricsSnapshotTest, ExposesBuildCacheAndQueryMetrics) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = core::MdbConfig::kUnconnectedHopi;
  options.partition_bound = 4;
  options.query_cache_capacity = 8;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());

  // Two identical facade queries: the second must hit the cache.
  (*flix)->FindDescendantsByName(c.GlobalId(0, 0), "b");
  (*flix)->FindDescendantsByName(c.GlobalId(0, 0), "b");

  const MetricsSnapshot snapshot = (*flix)->MetricsSnapshot();

  const int64_t* meta_docs = snapshot.FindGauge("flix.build.meta_documents");
  ASSERT_NE(meta_docs, nullptr);
  EXPECT_EQ(static_cast<size_t>(*meta_docs),
            (*flix)->stats().num_meta_documents);
  ASSERT_NE(snapshot.FindHistogram("flix.build.mdb_ns"), nullptr);
  ASSERT_NE(snapshot.FindHistogram("flix.build.total_ns"), nullptr);
  EXPECT_GT(snapshot.FindHistogram("flix.build.total_ns")->count, 0u);

  const int64_t* hits = snapshot.FindGauge("flix.cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(*hits, 1);
  const int64_t* misses = snapshot.FindGauge("flix.cache.misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(*misses, 1);

  ASSERT_NE(snapshot.FindHistogram("flix.query.latency_ns"), nullptr);
  EXPECT_GT(snapshot.FindHistogram("flix.query.latency_ns")->count, 0u);

  // Build phase timings made it into the instance stats too.
  EXPECT_GT((*flix)->stats().build_ms, 0);
  EXPECT_GE((*flix)->stats().mdb_ms, 0);
  EXPECT_GT((*flix)->stats().index_build_ms, 0);

  // And the whole snapshot survives the JSON round trip.
  MetricsSnapshot parsed;
  ASSERT_TRUE(obs::FromJson(obs::ToJson(snapshot), &parsed));
  EXPECT_EQ(parsed.counters.size(), snapshot.counters.size());
  EXPECT_EQ(parsed.gauges.size(), snapshot.gauges.size());
  EXPECT_EQ(parsed.histograms.size(), snapshot.histograms.size());
}

}  // namespace
}  // namespace flix
