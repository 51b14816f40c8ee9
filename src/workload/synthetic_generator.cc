#include "workload/synthetic_generator.h"

#include <string>
#include <vector>

#include "xml/serializer.h"

namespace flix::workload {
namespace {

// One planned outgoing link: owning document gets an <xref href="..."/>.
struct PlannedLink {
  size_t src_doc;
  std::string href;
};

// Builds a random tree-shaped document: element k hangs under a random
// earlier element whose depth allows it; every element gets an anchor id
// "e<k>". `links` lists the hrefs to embed as <xref> elements.
xml::Document BuildRandomDocument(const SyntheticOptions& options,
                                  xml::NamePool& pool, std::string name,
                                  size_t num_elements,
                                  const std::vector<std::string>& links,
                                  Rng& rng) {
  xml::Document doc(std::move(name));
  const TagId root_tag = pool.Intern("doc");
  std::vector<int> depth(num_elements, 0);

  const xml::ElementId root = doc.AddElement(root_tag, xml::kInvalidElement);
  doc.element(root).attributes.push_back({"id", "e0"});
  doc.RegisterAnchor("e0", root);

  for (size_t k = 1; k < num_elements; ++k) {
    // Pick a parent that keeps depth within bounds.
    xml::ElementId parent;
    do {
      parent = static_cast<xml::ElementId>(rng.Uniform(k));
    } while (depth[parent] + 1 > options.max_depth);
    const TagId tag =
        pool.Intern(std::string("t").append(
            std::to_string(rng.Uniform(options.num_tags))));
    const xml::ElementId e = doc.AddElement(tag, parent);
    depth[e] = depth[parent] + 1;
    const std::string anchor = std::string("e").append(std::to_string(k));
    doc.element(e).attributes.push_back({"id", anchor});
    doc.RegisterAnchor(anchor, e);
  }

  const TagId xref_tag = pool.Intern("xref");
  for (const std::string& href : links) {
    // Attach each link element under a random existing element.
    const xml::ElementId parent =
        static_cast<xml::ElementId>(rng.Uniform(num_elements));
    const xml::ElementId e = doc.AddElement(xref_tag, parent);
    doc.element(e).attributes.push_back({"href", href});
  }
  return doc;
}

}  // namespace

std::string GenerateDocumentXml(const SyntheticOptions& options,
                                std::string_view doc_label,
                                size_t num_elements, Rng& rng) {
  xml::NamePool pool;
  const xml::Document doc = BuildRandomDocument(
      options, pool, std::string(doc_label), num_elements, {}, rng);
  return xml::Serialize(doc, pool);
}

StatusOr<xml::Collection> GenerateSynthetic(const SyntheticOptions& options) {
  Rng rng(options.seed);
  xml::Collection collection;

  struct DocPlan {
    std::string name;
    size_t num_elements;
    std::vector<std::string> links;
  };
  std::vector<DocPlan> plans;
  const auto draw_elements = [&] {
    return options.min_elements +
           rng.Uniform(options.max_elements - options.min_elements + 1);
  };

  const size_t tree_begin = plans.size();
  for (size_t i = 0; i < options.tree_docs; ++i) {
    plans.push_back({"tree" + std::to_string(i), draw_elements(), {}});
  }
  const size_t dense_begin = plans.size();
  for (size_t i = 0; i < options.dense_docs; ++i) {
    plans.push_back({"dense" + std::to_string(i), draw_elements(), {}});
  }
  for (size_t i = 0; i < options.isolated_docs; ++i) {
    plans.push_back({"iso" + std::to_string(i), draw_elements(), {}});
  }

  // Tree region: document i > 0 is linked from a random earlier region
  // member, targeting its root — the shape Maximal PPO thrives on.
  for (size_t i = 1; i < options.tree_docs; ++i) {
    const size_t parent = tree_begin + rng.Uniform(i);
    plans[parent].links.push_back(plans[tree_begin + i].name);
  }

  // Dense region: several links per document to random elements of random
  // other members (cycles expected and desired), plus intra-document links
  // that make each member's own element graph non-tree.
  for (size_t i = 0; i < options.dense_docs; ++i) {
    const int count = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(2 * options.dense_links_per_doc) + 1));
    for (int c = 0; c < count && options.dense_docs > 1; ++c) {
      size_t j;
      do {
        j = rng.Uniform(options.dense_docs);
      } while (j == i);
      const DocPlan& target = plans[dense_begin + j];
      const size_t anchor = rng.Uniform(target.num_elements);
      plans[dense_begin + i].links.push_back(target.name + "#e" +
                                             std::to_string(anchor));
    }
    const int intra = static_cast<int>(rng.Uniform(
        static_cast<uint64_t>(2 * options.dense_intra_links_per_doc) + 1));
    DocPlan& plan = plans[dense_begin + i];
    for (int c = 0; c < intra; ++c) {
      plan.links.push_back("#e" + std::to_string(rng.Uniform(plan.num_elements)));
    }
  }

  for (const DocPlan& plan : plans) {
    xml::Document doc =
        BuildRandomDocument(options, collection.pool(), plan.name,
                            plan.num_elements, plan.links, rng);
    StatusOr<DocId> added = collection.AddDocument(std::move(doc));
    if (!added.ok()) return added.status();
  }
  collection.ResolveAllLinks();
  return collection;
}

}  // namespace flix::workload
