// Self-tuning (paper Section 7): run a query load against a deliberately
// poor configuration, watch the workload profiler's traversal totals flag
// the mismatch, and rebuild with coarser meta documents. (`flixctl adapt`
// acts on the same profile per meta document, swapping strategies in
// place.) Also demonstrates the query result cache and exact-order
// evaluation.
//
//   $ ./self_tuning
#include <cstdio>

#include "common/stopwatch.h"
#include "flix/flix.h"
#include "workload/query_workload.h"
#include "workload/synthetic_generator.h"

int main() {
  using namespace flix;

  workload::SyntheticOptions synth;
  synth.seed = 99;
  synth.tree_docs = 4;
  synth.dense_docs = 24;
  synth.dense_links_per_doc = 5;
  synth.isolated_docs = 2;
  auto collection = workload::GenerateSynthetic(synth);
  if (!collection.ok()) {
    std::fprintf(stderr, "%s\n", collection.status().ToString().c_str());
    return 1;
  }
  const graph::Digraph g = collection->BuildGraph();
  std::printf("collection: %zu documents, %zu elements, %zu links\n\n",
              collection->NumDocuments(), collection->NumElements(),
              collection->links().links.size());

  workload::QuerySamplerOptions sampler;
  sampler.count = 15;
  sampler.min_results = 3;
  const auto queries =
      workload::SampleDescendantQueries(*collection, g, sampler);

  // Runs the query load and returns the cross links followed per query:
  // when queries follow many links at run time, the build phase should be
  // repeated with coarser meta documents (a larger partition bound or a
  // more HOPI-leaning configuration).
  constexpr double kMaxLinksPerQuery = 4;
  const auto run_load = [&](const core::Flix& flix) {
    Stopwatch watch;
    size_t results = 0;
    for (const auto& q : queries) {
      results += flix.FindDescendantsByName(q.start, q.tag_name).size();
    }
    const obs::PartitionProfile totals = flix.Profile().Totals();
    std::printf("  %zu queries, %zu results, %.2f ms; entries %llu "
                "(%llu dominated), links followed %llu, probes %llu\n",
                queries.size(), results, watch.ElapsedMillis(),
                static_cast<unsigned long long>(totals.entries_processed),
                static_cast<unsigned long long>(totals.entries_dominated),
                static_cast<unsigned long long>(totals.entry_fanout),
                static_cast<unsigned long long>(totals.index_probes));
    const double links_per_query =
        queries.empty() ? 0
                        : static_cast<double>(totals.entry_fanout) /
                              static_cast<double>(queries.size());
    if (links_per_query > kMaxLinksPerQuery) {
      std::printf("  advice: queries follow %.1f links on average; rebuild "
                  "with coarser meta documents\n\n",
                  links_per_query);
    } else {
      std::printf("  advice: configuration is fine\n\n");
    }
    return links_per_query;
  };

  // Round 1: Naive configuration on a densely linked collection — every
  // inter-document step is a run-time link hop.
  core::FlixOptions naive;
  naive.config = core::MdbConfig::kNaive;
  naive.query_cache_capacity = 64;
  auto flix = core::Flix::Build(*collection, naive);
  if (!flix.ok()) return 1;
  std::printf("round 1: %s configuration\n",
              std::string(core::MdbConfigName(naive.config)).c_str());
  if (run_load(**flix) > kMaxLinksPerQuery) {
    // Round 2: follow the advice — coarser, HOPI-leaning meta documents.
    core::FlixOptions tuned;
    tuned.config = core::MdbConfig::kUnconnectedHopi;
    tuned.partition_bound = 2000;
    tuned.query_cache_capacity = 64;
    auto retuned = core::Flix::Build(*collection, tuned);
    if (!retuned.ok()) return 1;
    std::printf("round 2: rebuilt with %s (bound %zu)\n",
                std::string(core::MdbConfigName(tuned.config)).c_str(),
                tuned.partition_bound);
    run_load(**retuned);
    flix = std::move(retuned);
  }

  // The result cache pays off for repeated queries.
  if (!queries.empty()) {
    Stopwatch cold;
    (*flix)->FindDescendantsByName(queries[0].start, queries[0].tag_name);
    const double cold_ms = cold.ElapsedMillis();
    Stopwatch warm;
    (*flix)->FindDescendantsByName(queries[0].start, queries[0].tag_name);
    std::printf("query cache: cold %.3f ms, warm %.3f ms (%zu hits, %zu "
                "misses)\n",
                cold_ms, warm.ElapsedMillis(),
                (*flix)->query_cache()->hits(),
                (*flix)->query_cache()->misses());
  }

  // Exact-order evaluation: same result set, exact distances, sorted.
  if (!queries.empty()) {
    core::QueryOptions exact;
    exact.exact = true;
    std::vector<core::Result> sorted;
    (*flix)->pee().FindDescendantsByTag(queries[0].start, queries[0].tag,
                                        exact, [&](const core::Result& r) {
                                          sorted.push_back(r);
                                          return true;
                                        });
    std::printf("exact mode: %zu results, first at distance %d, last at %d "
                "(fully sorted)\n",
                sorted.size(), sorted.empty() ? -1 : sorted.front().distance,
                sorted.empty() ? -1 : sorted.back().distance);
  }
  return 0;
}
