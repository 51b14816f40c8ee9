// Adaptivity experiment (paper Section 7 future work: "test the adaptivity
// of FliX with more heterogeneous document collections"; Section 4.3 names
// the intended habitat of each configuration). Three corpus archetypes:
//
//   * INEX-like: few large documents, almost no links -> Naive should win
//     (one PPO per document, queries rarely cross documents);
//   * DBLP-like: many small documents, sparse root-targeting citation
//     links -> Maximal PPO groups them into trees;
//   * Web-like: densely interlinked mid-size documents with intra-document
//     links -> Unconnected HOPI / Hybrid.
//
// For each (corpus, configuration) pair: build cost, index size, average
// query latency, and the self-tuning signal (links followed per query).
//
//   $ ./bench_adaptivity
#include "bench/bench_util.h"

#include <vector>

#include "common/bytes.h"
#include "workload/inex_generator.h"
#include "workload/query_workload.h"
#include "workload/synthetic_generator.h"

namespace {

using namespace flix;

struct Corpus {
  std::string label;
  xml::Collection collection;
};

std::vector<Corpus> MakeCorpora() {
  std::vector<Corpus> corpora;
  {
    workload::InexOptions options;
    options.num_articles = 150;
    auto c = workload::GenerateInex(options);
    if (!c.ok()) std::exit(1);
    corpora.push_back({"INEX-like", std::move(c).value()});
  }
  {
    workload::DblpOptions options;
    options.num_publications = 1500;
    auto c = workload::GenerateDblp(options);
    if (!c.ok()) std::exit(1);
    corpora.push_back({"DBLP-like", std::move(c).value()});
  }
  {
    workload::SyntheticOptions options;
    options.seed = 17;
    options.tree_docs = 10;
    options.dense_docs = 120;
    options.dense_links_per_doc = 6;
    options.isolated_docs = 10;
    options.min_elements = 40;
    options.max_elements = 160;
    auto c = workload::GenerateSynthetic(options);
    if (!c.ok()) std::exit(1);
    corpora.push_back({"Web-like", std::move(c).value()});
  }
  return corpora;
}

}  // namespace

int main() {
  std::printf("=== Adaptivity: configurations across collection types ===\n");
  const core::MdbConfig configs[] = {
      core::MdbConfig::kNaive, core::MdbConfig::kMaximalPpo,
      core::MdbConfig::kUnconnectedHopi, core::MdbConfig::kHybrid};

  for (Corpus& corpus : MakeCorpora()) {
    const graph::Digraph g = corpus.collection.BuildGraph();
    size_t inter = 0;
    for (const xml::Link& link : corpus.collection.links().links) {
      if (link.IsInterDocument()) ++inter;
    }
    std::printf("\n-- %s: %zu docs, %zu elements (%.0f/doc), %zu "
                "inter-document links --\n",
                corpus.label.c_str(), corpus.collection.NumDocuments(),
                corpus.collection.NumElements(),
                static_cast<double>(corpus.collection.NumElements()) /
                    corpus.collection.NumDocuments(),
                inter);

    workload::QuerySamplerOptions sampler;
    sampler.seed = 23;
    sampler.count = 12;
    sampler.min_results = 3;
    const auto queries =
        workload::SampleDescendantQueries(corpus.collection, g, sampler);

    std::printf("%-16s %8s %10s %10s %12s %12s %10s\n", "config", "metas",
                "size", "build", "query [ms]", "links/query", "error");
    for (const core::MdbConfig config : configs) {
      core::FlixOptions options;
      options.config = config;
      options.partition_bound = 5000;
      const auto flix = bench::MustBuild(corpus.collection, options);

      Stopwatch watch;
      double error = 0;
      for (const auto& q : queries) {
        const auto results = flix->FindDescendantsByName(q.start, q.tag_name);
        error += workload::OrderErrorRate(results);
      }
      const double n = queries.empty() ? 1.0 : queries.size();
      const double query_ms = watch.ElapsedMillis() / n;
      const uint64_t links = flix->Profile().Totals().entry_fanout;
      std::printf("%-16s %8zu %10s %8.0fms %12.3f %12.1f %9.1f%%\n",
                  std::string(core::MdbConfigName(config)).c_str(),
                  flix->stats().num_meta_documents,
                  FormatBytes(flix->stats().total_index_bytes).c_str(),
                  flix->stats().build_ms, query_ms,
                  static_cast<double>(links) / n,
                  100 * error / n);
    }
  }

  std::printf(
      "\nexpected (Section 4.3): on INEX-like data the Naive configuration "
      "suffices — tiny PPO indexes, queries rarely leave a document "
      "(links/query ~1); on DBLP-like data Maximal PPO folds the documents "
      "into ~8x fewer meta documents at the same index size; on the dense "
      "Web-like corpus the partitioned configurations absorb links into "
      "their HOPI meta documents, roughly halving run-time link hops at a "
      "moderate size premium. No configuration dominates everywhere — the "
      "premise of the framework.\n");
  bench::EmitMetricsBlock("adaptivity");
  return 0;
}
