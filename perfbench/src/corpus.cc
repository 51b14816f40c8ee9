#include "corpus.h"

#include <fstream>
#include <string_view>

#include "common/rng.h"
#include "spans.h"
#include "workload/dblp_generator.h"

namespace perfbench {
namespace {

// The document name GeneratePublicationXml writes as the root element's
// key attribute, which the generated citation hrefs refer to; empty if the
// text has none.
std::string RootKey(const std::string& xml) {
  static constexpr std::string_view kAttribute = " key=\"";
  const size_t at = xml.find(kAttribute);
  if (at == std::string::npos) return {};
  const size_t from = at + kAttribute.size();
  const size_t end = xml.find('"', from);
  return end == std::string::npos ? std::string() : xml.substr(from, end - from);
}

}  // namespace

flix::StatusOr<Corpus> MakeDblpCorpus(uint64_t seed, size_t publications) {
  flix::workload::DblpOptions options;
  options.seed = seed;
  options.num_publications = publications;
  // Same sampling sequence as workload::GenerateDblp, which parses the text
  // itself; here the text is kept so the program receives only XML.
  flix::Rng rng(options.seed);
  flix::ZipfSampler zipf(1, options.citation_zipf);
  Corpus corpus;
  corpus.names.reserve(publications);
  corpus.texts.reserve(publications);
  for (size_t i = 0; i < publications; ++i) {
    zipf.Grow(i);
    corpus.texts.push_back(flix::workload::GeneratePublicationXml(
        options, i, rng, i > 0 ? &zipf : nullptr));
    corpus.names.push_back(RootKey(corpus.texts.back()));
    if (corpus.names.back().empty()) {
      return flix::InternalError("publication " + std::to_string(i) +
                                 " has no key attribute");
    }
    corpus.bytes += corpus.texts.back().size();
  }
  return corpus;
}

flix::StatusOr<Instance> SetUp(const Corpus& corpus,
                               const flix::core::FlixOptions& options,
                               const SaveTarget* save, SetupTimes* times) {
  const uint64_t start = NowNs();
  Instance instance;
  instance.collection = std::make_unique<flix::xml::Collection>();
  flix::xml::Collection& collection = *instance.collection;
  {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < corpus.texts.size(); ++i) {
      Span span("xml.parse");
      flix::StatusOr<flix::DocId> added =
          collection.AddXml(corpus.texts[i], corpus.names[i]);
      if (!added.ok()) return added.status();
    }
    times->parse_ms = (NowNs() - t0) / 1e6;
  }
  {
    Span span("xml.resolve");
    const uint64_t t0 = NowNs();
    collection.ResolveAllLinks();
    times->resolve_ms = (NowNs() - t0) / 1e6;
  }
  {
    Span span("flix.build");
    const uint64_t t0 = NowNs();
    auto built = flix::core::Flix::Build(collection, options);
    if (!built.ok()) return built.status();
    instance.flix = std::move(built).value();
    times->build_ms = (NowNs() - t0) / 1e6;
  }
  if (save != nullptr) {
    Span span("storage.save");
    const uint64_t t0 = NowNs();
    {
      std::ofstream out(save->collection_path, std::ios::binary);
      if (flix::Status s = collection.Save(out); !s.ok()) return s;
      if (!out) {
        return flix::InternalError("cannot write " + save->collection_path);
      }
    }
    if (flix::Status s = instance.flix->Save(
            save->index_path, flix::core::Flix::IndexFormat::kMapped);
        !s.ok()) {
      return s;
    }
    times->save_ms = (NowNs() - t0) / 1e6;
  }
  times->total_s = (NowNs() - start) / 1e9;
  return instance;
}

}  // namespace perfbench
