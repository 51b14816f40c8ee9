// The fresh process of the cold-query workload.
//
//   flix_cold_child COLLECTION INDEX START_DOC TAG
//
// Opens the saved collection and index exactly as `flixctl query` does
// (Collection::Load from the stream file, then Flix::Load with default
// options, which maps the paged index and verifies its checksums), serves a
// top-10 START_DOC//TAG query and then the full result set, and prints one
// line of steady-clock timestamps and answer digests for the parent:
//
//   main <ns> collection <ns> open <ns> first <ns> topk <ns> full <ns>
//   count <n> nodes <digest> hwm_kb <peak RSS> top <n1,n2,...>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "flix/flix.h"
#include "oracle.h"
#include "spans.h"

int main(int argc, char** argv) {
  const uint64_t main_ns = perfbench::NowNs();
  if (argc != 5) {
    std::fprintf(stderr, "usage: %s COLLECTION INDEX START_DOC TAG\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", argv[1]);
    return 1;
  }
  auto collection = flix::xml::Collection::Load(in);
  if (!collection.ok()) {
    std::fprintf(stderr, "%s\n", collection.status().ToString().c_str());
    return 1;
  }
  const uint64_t collection_ns = perfbench::NowNs();
  auto flix = flix::core::Flix::Load(argv[2], *collection);
  if (!flix.ok()) {
    std::fprintf(stderr, "%s\n", flix.status().ToString().c_str());
    return 1;
  }
  const uint64_t open_ns = perfbench::NowNs();

  const flix::DocId doc = collection->FindDocument(argv[3]);
  if (doc == flix::kInvalidDoc) {
    std::fprintf(stderr, "unknown document '%s'\n", argv[3]);
    return 1;
  }
  const flix::NodeId start = collection->GlobalId(doc, 0);

  flix::core::QueryOptions top_options;
  top_options.max_results = 10;
  uint64_t first_ns = 0;
  std::vector<flix::NodeId> top;
  (*flix)->FindDescendantsByName(start, argv[4], top_options,
                                 [&](const flix::core::Result& r) {
                                   if (top.empty()) first_ns = perfbench::NowNs();
                                   top.push_back(r.node);
                                   return true;
                                 });
  const uint64_t topk_ns = perfbench::NowNs();

  perfbench::SetDigest full;
  (*flix)->FindDescendantsByName(start, argv[4], {},
                                 [&](const flix::core::Result& r) {
                                   full.Add(r.node, r.distance);
                                   return true;
                                 });
  const uint64_t full_ns = perfbench::NowNs();
  if (first_ns == 0) first_ns = topk_ns;

  // Peak RSS of this process image. The parent cannot use wait4's
  // ru_maxrss: after posix_spawn's vfork it includes the parent's own peak.
  uint64_t hwm_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string key; status >> key;) {
    if (key == "VmHWM:") {
      status >> hwm_kb;
      break;
    }
    std::getline(status, key);
  }

  std::printf("main %" PRIu64 " collection %" PRIu64 " open %" PRIu64
              " first %" PRIu64 " topk %" PRIu64 " full %" PRIu64
              " count %" PRIu64 " nodes %" PRIu64 " hwm_kb %" PRIu64 " top ",
              main_ns, collection_ns, open_ns, first_ns, topk_ns, full_ns,
              full.count, full.nodes, hwm_kb);
  for (size_t i = 0; i < top.size(); ++i) {
    std::printf(i == 0 ? "%u" : ",%u", top[i]);
  }
  std::printf("\n");
  return 0;
}
