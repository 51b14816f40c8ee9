// Cold-open latency: the time from opening a saved (paged FLIXPG01) index
// file to serving the first query result, with the up-front verification
// sweep off and on.
//
// Verify off is the lazy open for beyond-RAM collections: Load maps the file
// and answers out of the mapping, touching only the pages the query needs.
// Verify on (the default LoadOptions) first reads every segment once for
// its checksum and structural range checks (see DESIGN.md "Paged storage
// format").
//
//   $ ./bench_cold_open [--pubs 6210] [--repeats 5]
#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  using namespace flix;
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 6210);
  const size_t repeats = bench::FlagOr(argc, argv, "--repeats", 5);

  std::printf("=== Cold open: time to first result, verify off vs on ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  std::printf("corpus: %zu documents, %zu elements\n",
              collection.NumDocuments(), collection.NumElements());

  core::FlixOptions options;
  options.config = core::MdbConfig::kHybrid;
  const auto built = bench::MustBuild(collection, options);

  const std::string path = std::filesystem::temp_directory_path().string() +
                           "/bench_cold_open_mapped.flix";
  if (!built->Save(path).ok()) {
    std::fprintf(stderr, "save failed\n");
    return 1;
  }
  std::printf("file: %.2f MB\n", std::filesystem::file_size(path) / 1e6);

  const NodeId start = collection.GlobalId(0, 0);

  // One cold open: path-based Load, then a descendant query aborted at its
  // first result.
  struct ColdOpen {
    uint64_t load_ns = 0;
    uint64_t total_ns = 0;  // load + first result
  };
  const auto time_to_first_result = [&](bool verify) -> ColdOpen {
    core::Flix::LoadOptions load_options;
    load_options.verify_checksums = verify;
    Stopwatch watch;
    auto flix = core::Flix::Load(path, collection, load_options);
    if (!flix.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   flix.status().ToString().c_str());
      std::exit(1);
    }
    ColdOpen result;
    result.load_ns = watch.ElapsedNanos();
    bool got_result = false;
    (*flix)->FindDescendantsByName(start, "author", {},
                                   [&](const core::Result&) {
                                     got_result = true;
                                     return false;  // stop at the first hit
                                   });
    result.total_ns = watch.ElapsedNanos();
    if (!got_result) {
      std::fprintf(stderr, "query returned no results\n");
      std::exit(1);
    }
    return result;
  };

  // Repeats are batched per mode, not interleaved, so each measurement's
  // allocator and page-cache state is shaped by its own mode only; a real
  // cold open runs in a fresh process.
  auto& registry = obs::MetricsRegistry::Global();
  struct Mode {
    const char* label;
    bool verify;
    const char* metric;
    std::vector<uint64_t> total_ns;
    std::vector<uint64_t> load_ns;
  };
  std::vector<Mode> modes = {
      {"lazy", false, "bench.cold_open.mapped_ns", {}, {}},
      {"verified", true, "bench.cold_open.mapped_verified_ns", {}, {}},
  };
  for (Mode& mode : modes) {
    for (size_t r = 0; r < repeats; ++r) {
      const ColdOpen open = time_to_first_result(mode.verify);
      mode.total_ns.push_back(open.total_ns);
      mode.load_ns.push_back(open.load_ns);
      registry.GetHistogram(mode.metric).Record(open.total_ns);
    }
  }

  const auto avg = [](const std::vector<uint64_t>& v) {
    uint64_t sum = 0;
    for (const uint64_t x : v) sum += x;
    return static_cast<double>(sum) / v.size() / 1e6;
  };
  std::printf("\n%-9s %14s %14s %14s\n", "open", "best [ms]", "avg [ms]",
              "avg load [ms]");
  for (const Mode& mode : modes) {
    std::printf("%-9s %14.3f %14.3f %14.3f\n", mode.label,
                *std::min_element(mode.total_ns.begin(), mode.total_ns.end()) /
                    1e6,
                avg(mode.total_ns), avg(mode.load_ns));
  }
  std::printf("\n");

  bench::EmitMetricsBlock("cold_open", {bench::Config("pubs", pubs),
                                        bench::Config("repeats", repeats)});
  return 0;
}
