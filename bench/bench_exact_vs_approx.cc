// Ablation: the price of exact results (Section 7's "returning results
// exactly sorted instead of approximately"). Compares, per configuration,
// approximate streaming vs exact mode on the same queries: first-result
// latency, total time, and the ordering error of each stream.
//
//   $ ./bench_exact_vs_approx [--pubs 2000]
#include "bench/bench_util.h"

#include <vector>

#include "workload/query_workload.h"

int main(int argc, char** argv) {
  using namespace flix;
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 2000);

  std::printf("=== Exact vs. approximate evaluation ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  const graph::Digraph g = collection.BuildGraph();
  std::printf("corpus: %zu documents, %zu elements\n\n",
              collection.NumDocuments(), collection.NumElements());

  workload::QuerySamplerOptions sampler;
  sampler.seed = 31;
  sampler.count = 10;
  sampler.min_results = 10;
  const auto queries =
      workload::SampleDescendantQueries(collection, g, sampler);
  std::printf("%zu queries\n\n", queries.size());

  std::printf("%-12s | %12s %12s %8s | %12s %12s %8s\n", "",
              "approx first", "approx all", "error", "exact first",
              "exact all", "error");
  for (const bench::Setup& setup : bench::PaperSetups()) {
    const auto flix = bench::MustBuild(collection, setup.options);

    double first_ms[2] = {0, 0};
    double all_ms[2] = {0, 0};
    double error[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      for (const auto& q : queries) {
        core::QueryOptions options;
        options.exact = mode == 1;
        Stopwatch watch;
        double first = 0;
        std::vector<core::Result> results;
        flix->pee().FindDescendantsByTag(q.start, q.tag, options,
                                         [&](const core::Result& r) {
                                           if (results.empty()) {
                                             first = watch.ElapsedMillis();
                                           }
                                           results.push_back(r);
                                           return true;
                                         });
        first_ms[mode] += first;
        all_ms[mode] += watch.ElapsedMillis();
        error[mode] += workload::OrderErrorRate(results);
      }
    }
    const double n = queries.empty() ? 1.0 : queries.size();
    std::printf("%-12s | %12.3f %12.3f %7.1f%% | %12.3f %12.3f %7.1f%%\n",
                setup.label.c_str(), first_ms[0] / n, all_ms[0] / n,
                100 * error[0] / n, first_ms[1] / n, all_ms[1] / n,
                100 * error[1] / n);
  }

  std::printf(
      "\nexpected: both modes stream, so both report 0%% ordering error and "
      "an early first result; exact mode processes every entry node once "
      "instead of pruning dominated entry points, so its complete set can "
      "cost more where many entries of a partition are dominated.\n");
  bench::EmitMetricsBlock("exact_vs_approx");
  return 0;
}
