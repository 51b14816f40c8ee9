// Inputs and set-up: the DBLP-style corpus as XML text, and the program-side
// work that turns that text into a queryable FliX instance.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "flix/flix.h"
#include "xml/collection.h"

namespace perfbench {

// The paper's DBLP extract: 6,210 publications, ~169k elements.
inline constexpr size_t kPaperPublications = 6210;

// One XML document per publication, named by its root's key attribute
// (`<venue>/pub<i>`), the name the generated citation hrefs use.
struct Corpus {
  std::vector<std::string> names;
  std::vector<std::string> texts;
  size_t bytes = 0;  // total XML text
};

// Generates the XML text of the DBLP-style corpus for `seed`. The same seed
// gives the same text; this is benchmark input generation, not timed work.
flix::StatusOr<Corpus> MakeDblpCorpus(uint64_t seed, size_t publications);

// A built instance. The collection lives on the heap because the Flix
// instance keeps a reference to it.
struct Instance {
  std::unique_ptr<flix::xml::Collection> collection;
  std::unique_ptr<flix::core::Flix> flix;
};

// Where set-up persists the instance (cold-query only): the collection as
// `flixctl build` writes it, and the index in the paged format.
struct SaveTarget {
  std::string collection_path;
  std::string index_path;
};

struct SetupTimes {
  double parse_ms = 0;    // all Collection::AddXml calls
  double resolve_ms = 0;  // Collection::ResolveAllLinks
  double build_ms = 0;    // Flix::Build
  double save_ms = 0;     // Collection::Save + Flix::Save (cold-query)
  double total_s = 0;     // text handed over -> ready to serve
};

// Parses and links the corpus, builds FliX with `options` and, when `save`
// is given, writes both files. This is exactly the work `setup_s` times.
flix::StatusOr<Instance> SetUp(const Corpus& corpus,
                               const flix::core::FlixOptions& options,
                               const SaveTarget* save, SetupTimes* times);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
