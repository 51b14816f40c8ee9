#include "flix/flix.h"

#include "common/stopwatch.h"
#include "flix/landmarks.h"
#include "flix/mdb.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace flix::core {

void FlixStats::CountStrategy(index::StrategyKind kind) {
  switch (kind) {
    case index::StrategyKind::kPpo: ++num_ppo; break;
    case index::StrategyKind::kHopi: ++num_hopi; break;
    case index::StrategyKind::kApex: ++num_apex; break;
  }
}

StatusOr<std::unique_ptr<Flix>> Flix::Build(const xml::Collection& collection,
                                            const FlixOptions& options) {
  Stopwatch watch;
  auto flix = std::unique_ptr<Flix>(new Flix(collection, options));
  // Root span of the build timeline; the MDB/ISS/IB spans nest under it
  // when a TraceCollector is enabled (`flixctl trace`).
  obs::TraceSpan build_span(nullptr, obs::names::kSpanBuild);
  build_span.AddAttr("config", MdbConfigName(options.config));

  const graph::Digraph graph = collection.BuildGraph();
  const std::vector<uint32_t> doc_of = collection.DocOfNode();
  std::vector<NodeId> doc_roots(collection.NumDocuments());
  for (DocId d = 0; d < collection.NumDocuments(); ++d) {
    doc_roots[d] = collection.GlobalId(d, 0);
  }

  MdbInput input;
  input.graph = &graph;
  input.doc_of = &doc_of;
  input.doc_roots = &doc_roots;
  auto& reg = obs::MetricsRegistry::Global();
  {
    obs::TraceSpan mdb_span(&reg.GetHistogram(obs::names::kBuildMdbNs),
                            obs::names::kSpanBuildMdb);
    flix->set_ = BuildMetaDocuments(input, options);
    flix->stats_.mdb_ms = static_cast<double>(mdb_span.ElapsedNanos()) / 1e6;
  }

  StatusOr<std::vector<MetaIndexStats>> stats =
      BuildIndexes(flix->set_, options, &flix->profiler_);
  if (!stats.ok()) return stats.status();
  flix->profiler_.SetEnabled(options.workload_profiling);

  if (options.landmark_count > 0) {
    obs::TraceSpan landmark_span(&reg.GetHistogram(obs::names::kBuildLandmarksNs),
                                 obs::names::kSpanBuildLandmarks);
    flix->set_.landmarks.Set(std::make_shared<const LandmarkCache>(
        LandmarkCache::Build(graph, flix->set_, options.landmark_count)));
  }

  flix->pee_ =
      std::make_unique<PathExpressionEvaluator>(flix->set_, &flix->profiler_);
  if (options.query_cache_capacity > 0) {
    flix->cache_ = std::make_unique<QueryCache>(options.query_cache_capacity);
    flix->cache_->AttachProfiler(&flix->profiler_);
  }

  FlixStats& out = flix->stats_;
  out.per_meta = std::move(stats).value();
  out.num_meta_documents = flix->set_.docs.size();
  out.num_cross_links = flix->set_.num_cross_links;
  for (const MetaIndexStats& m : out.per_meta) {
    out.total_index_bytes += m.index_bytes;
    out.iss_ms += m.select_ms;
    out.index_build_ms += m.build_ms;
    out.CountStrategy(m.strategy);
  }
  out.build_ms = watch.ElapsedMillis();
  reg.GetHistogram(obs::names::kBuildTotalNs).Record(watch.ElapsedNanos());
  reg.GetCounter(obs::names::kBuildCount).Increment();
  return flix;
}

TagId Flix::LookupTag(std::string_view name) const {
  return collection_.pool().Lookup(name);
}

void Flix::FindDescendantsByName(NodeId start, std::string_view name,
                                 const QueryOptions& options,
                                 const ResultSink& sink) const {
  const TagId tag = LookupTag(name);
  if (tag == kInvalidTag) return;
  pee_->FindDescendantsByTag(start, tag, options, sink);
}

std::vector<Result> Flix::FindDescendantsByName(
    NodeId start, std::string_view name, const QueryOptions& options) const {
  std::vector<Result> results;
  const TagId tag = LookupTag(name);
  if (tag == kInvalidTag) return results;

  // Only unconstrained queries are cacheable: limits change the result list.
  const bool cacheable = cache_ != nullptr && options.max_distance < 0 &&
                         options.max_results < 0 && !options.exact;
  // Cache traffic is attributed to the start element's partition — the meta
  // document whose queries the cache is absorbing.
  const uint32_t partition = start < set_.meta_of_node.size()
                                 ? set_.meta_of_node[start]
                                 : QueryCache::kNoPartition;
  if (cacheable && cache_->Lookup(start, tag, &results, partition)) {
    return results;
  }

  pee_->FindDescendantsByTag(start, tag, options, [&](const Result& r) {
    results.push_back(r);
    return true;
  });
  if (cacheable) cache_->Insert(start, tag, results);
  return results;
}

std::vector<Result> Flix::FindAncestorsByName(
    NodeId start, std::string_view name, const QueryOptions& options) const {
  std::vector<Result> results;
  const TagId tag = LookupTag(name);
  if (tag == kInvalidTag) return results;
  pee_->FindAncestorsByTag(start, tag, options, [&](const Result& r) {
    results.push_back(r);
    return true;
  });
  return results;
}

std::vector<Result> Flix::EvaluateTypeQuery(std::string_view start_name,
                                            std::string_view result_name,
                                            const QueryOptions& options) const {
  std::vector<Result> results;
  const TagId start_tag = LookupTag(start_name);
  const TagId result_tag = LookupTag(result_name);
  if (start_tag == kInvalidTag || result_tag == kInvalidTag) return results;
  pee_->EvaluateTypeQuery(start_tag, result_tag, options,
                          [&](const Result& r) {
                            results.push_back(r);
                            return true;
                          });
  return results;
}

obs::MetricsSnapshot Flix::MetricsSnapshot() const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge(obs::names::kBuildMetaDocuments)
      .Set(static_cast<int64_t>(stats_.num_meta_documents));
  reg.GetGauge(obs::names::kBuildCrossLinks)
      .Set(static_cast<int64_t>(stats_.num_cross_links));
  reg.GetGauge(obs::names::kBuildIndexBytes)
      .Set(static_cast<int64_t>(stats_.total_index_bytes));
  reg.GetGauge(obs::names::kBuildStrategyPpo)
      .Set(static_cast<int64_t>(stats_.num_ppo));
  reg.GetGauge(obs::names::kBuildStrategyHopi)
      .Set(static_cast<int64_t>(stats_.num_hopi));
  reg.GetGauge(obs::names::kBuildStrategyApex)
      .Set(static_cast<int64_t>(stats_.num_apex));
  if (cache_ != nullptr) {
    const QueryCacheStats cache = cache_->Stats();
    reg.GetGauge(obs::names::kCacheSize).Set(static_cast<int64_t>(cache.size));
    reg.GetGauge(obs::names::kCacheCapacity)
        .Set(static_cast<int64_t>(cache.capacity));
    reg.GetGauge(obs::names::kCacheHits).Set(static_cast<int64_t>(cache.hits));
    reg.GetGauge(obs::names::kCacheMisses).Set(static_cast<int64_t>(cache.misses));
    reg.GetGauge(obs::names::kCacheInsertions)
        .Set(static_cast<int64_t>(cache.insertions));
    reg.GetGauge(obs::names::kCacheOverwrites)
        .Set(static_cast<int64_t>(cache.overwrites));
    reg.GetGauge(obs::names::kCacheEvictions)
        .Set(static_cast<int64_t>(cache.evictions));
  }
  // Touch the streaming-cursor counters so they appear in the snapshot even
  // before the first query registers them.
  reg.GetCounter(obs::names::kQueryCursorOpened);
  reg.GetCounter(obs::names::kQueryCursorPulled);
  reg.GetCounter(obs::names::kQueryCursorSaved);
  // Likewise the correctness-tooling counters (see src/check/), so
  // `flixctl stats` shows the check totals even when no check ran yet.
  reg.GetCounter(obs::names::kCheckValidations);
  reg.GetCounter(obs::names::kCheckViolations);
  reg.GetCounter(obs::names::kCheckOracleQueries);
  // And the adaptive-ISS counters (see src/flix/adapt.h).
  reg.GetCounter(obs::names::kAdaptRecommended);
  reg.GetCounter(obs::names::kAdaptMigrated);
  reg.GetCounter(obs::names::kAdaptRejectedHysteresis);
  reg.GetCounter(obs::names::kAdaptValidationFailed);
  // Landmark / guided-search series (see src/flix/landmarks.h).
  reg.GetCounter(obs::names::kQueryPointPops);
  reg.GetCounter(obs::names::kGuidedPrunedEntries);
  reg.GetCounter(obs::names::kGuidedHeuristicHits);
  const LandmarkCache* landmarks = set_.landmarks.Snapshot();
  reg.GetGauge(obs::names::kLandmarksCount)
      .Set(landmarks != nullptr
               ? static_cast<int64_t>(landmarks->num_landmarks())
               : 0);
  return reg.Snapshot();
}

Status Flix::Validate(const index::ValidateOptions& options) const {
  const size_t n = collection_.NumElements();
  if (set_.meta_of_node.size() != n || set_.local_of_node.size() != n) {
    return InternalError("node mapping covers " +
                         std::to_string(set_.meta_of_node.size()) +
                         " nodes, the collection has " + std::to_string(n));
  }
  size_t covered = 0;
  for (uint32_t m = 0; m < set_.docs.size(); ++m) {
    const MetaDocument& doc = set_.docs[m];
    for (NodeId local = 0; local < doc.global_nodes.size(); ++local) {
      const NodeId g = doc.global_nodes[local];
      if (g >= n || set_.meta_of_node[g] != m ||
          set_.local_of_node[g] != local) {
        return InternalError("meta document " + std::to_string(m) +
                             " local node " + std::to_string(local) +
                             " claims global node " + std::to_string(g) +
                             ", whose mapping disagrees");
      }
    }
    covered += doc.global_nodes.size();
  }
  if (covered != n) {
    return InternalError("meta documents hold " + std::to_string(covered) +
                         " elements, the collection has " + std::to_string(n));
  }
  for (uint32_t m = 0; m < set_.docs.size(); ++m) {
    const MetaDocument& doc = set_.docs[m];
    const std::shared_ptr<index::PathIndex> index = doc.index.Acquire();
    if (index == nullptr) {
      return InternalError("meta document " + std::to_string(m) +
                           " has no index");
    }
    if (Status status = index->Validate(doc.graph, options); !status.ok()) {
      return InternalError("meta document " + std::to_string(m) + " [" +
                           std::string(index->name()) + "] " +
                           status.message());
    }
  }
  return Status::Ok();
}

void Flix::RebuildLandmarks(size_t count) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::TraceSpan span(&reg.GetHistogram(obs::names::kBuildLandmarksNs),
                      obs::names::kSpanBuildLandmarks);
  options_.landmark_count = count;
  set_.landmarks.Set(
      count > 0 ? std::make_shared<const LandmarkCache>(LandmarkCache::Build(
                      collection_.BuildGraph(), set_, count))
                : nullptr);
}

void Flix::ReplacePartitionIndex(uint32_t partition,
                                 std::shared_ptr<index::PathIndex> index,
                                 uint64_t build_ns) {
  MetaDocument& meta = set_.docs[partition];
  // Identity first: by the time a query attributes work to the new index,
  // the profiler already names the strategy it ran against.
  profiler_.SetPartitionInfo(partition, index::StrategyName(index->kind()),
                             meta.graph.NumNodes(), build_ns);
  meta.index.Replace(std::move(index));
}

std::string_view MdbConfigName(MdbConfig config) {
  switch (config) {
    case MdbConfig::kNaive: return "Naive";
    case MdbConfig::kMaximalPpo: return "MaximalPPO";
    case MdbConfig::kUnconnectedHopi: return "UnconnectedHOPI";
    case MdbConfig::kHybrid: return "Hybrid";
  }
  return "UNKNOWN";
}

}  // namespace flix::core
