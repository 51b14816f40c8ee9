#include "check/validator.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "flix/landmarks.h"
#include "graph/digraph.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace flix::check {
namespace {

uint64_t EdgeKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

std::string MetaPrefix(uint32_t m) {
  return "meta document " + std::to_string(m) + ": ";
}

// L_i / entry-node exactness within one meta document: the sorted list must
// be precisely the key set of the per-node target map, with no empty rows.
void CheckLinkList(uint32_t m, const std::string& what,
                   const storage::FlatVec<NodeId>& list,
                   const storage::FlatMultiMap& map,
                   std::vector<std::string>& violations) {
  if (!std::is_sorted(list.begin(), list.end()) ||
      std::adjacent_find(list.begin(), list.end()) != list.end()) {
    violations.push_back(MetaPrefix(m) + what +
                         " is not sorted and deduplicated");
    return;
  }
  if (list.size() != map.NumKeys()) {
    violations.push_back(MetaPrefix(m) + what + " lists " +
                         std::to_string(list.size()) +
                         " nodes but the target map has " +
                         std::to_string(map.NumKeys()) + " rows");
    return;
  }
  for (const NodeId v : list) {
    // At() returns empty both for a missing row and for an empty one;
    // either way the list entry has no targets behind it.
    if (map.At(v).empty()) {
      violations.push_back(MetaPrefix(m) + what + " lists local node " +
                           std::to_string(v) +
                           " with no (or an empty) target-map row");
      return;
    }
  }
}

}  // namespace

CheckReport ValidateFramework(const core::Flix& flix,
                              const CheckOptions& options) {
  CheckReport report;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  const core::MetaDocumentSet& set = flix.meta_documents();
  const graph::Digraph global = flix.collection().BuildGraph();
  const size_t n = global.NumNodes();

  // --- Mapping cover: meta documents partition the element set exactly. ---
  ++report.checks_run;
  if (set.meta_of_node.size() != n || set.local_of_node.size() != n) {
    report.violations.push_back(
        "node mapping covers " + std::to_string(set.meta_of_node.size()) +
        " nodes, the collection has " + std::to_string(n));
  } else {
    size_t covered = 0;
    for (uint32_t m = 0; m < set.docs.size(); ++m) {
      const core::MetaDocument& doc = set.docs[m];
      if (doc.graph.NumNodes() != doc.global_nodes.size()) {
        report.violations.push_back(
            MetaPrefix(m) + "local graph has " +
            std::to_string(doc.graph.NumNodes()) + " nodes, global_nodes " +
            std::to_string(doc.global_nodes.size()));
        continue;
      }
      for (NodeId local = 0; local < doc.global_nodes.size(); ++local) {
        const NodeId g = doc.global_nodes[local];
        if (g >= n || set.meta_of_node[g] != m ||
            set.local_of_node[g] != local) {
          report.violations.push_back(
              MetaPrefix(m) + "local node " + std::to_string(local) +
              " claims global node " + std::to_string(g) +
              ", whose mapping points to meta document " +
              std::to_string(g < n ? set.meta_of_node[g] : kInvalidNode) +
              " local " +
              std::to_string(g < n ? set.local_of_node[g] : kInvalidNode));
          break;
        }
        if (doc.graph.Tag(local) != global.Tag(g)) {
          report.violations.push_back(
              MetaPrefix(m) + "local node " + std::to_string(local) +
              " has tag " + std::to_string(doc.graph.Tag(local)) +
              ", global node " + std::to_string(g) + " has tag " +
              std::to_string(global.Tag(g)));
          break;
        }
      }
      covered += doc.global_nodes.size();
    }
    // With both directions of the mapping verified, a count match makes the
    // partition exact: no element unassigned, none in two meta documents.
    if (covered != n) {
      report.violations.push_back(
          "meta documents hold " + std::to_string(covered) +
          " elements, the collection has " + std::to_string(n) +
          " — some element is orphaned or duplicated");
    }
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t m = set.meta_of_node[v];
      if (m >= set.docs.size() ||
          set.local_of_node[v] >= set.docs[m].global_nodes.size() ||
          set.docs[m].global_nodes[set.local_of_node[v]] != v) {
        report.violations.push_back(
            "global node " + std::to_string(v) +
            " maps to meta document " + std::to_string(m) + " local " +
            std::to_string(set.local_of_node[v]) +
            ", which does not map back — orphaned partition node");
        break;
      }
    }
  }

  // --- L_i exactness and edge cover. ---
  ++report.checks_run;
  std::unordered_set<uint64_t> global_edges;
  for (NodeId u = 0; u < n; ++u) {
    for (const graph::Digraph::Arc& arc : global.OutArcs(u)) {
      global_edges.insert(EdgeKey(u, arc.target));
    }
  }
  size_t recorded_cross_links = 0;
  const bool mapping_ok = report.violations.empty();
  for (uint32_t m = 0; m < set.docs.size(); ++m) {
    const core::MetaDocument& doc = set.docs[m];
    CheckLinkList(m, "link_sources", doc.link_sources, doc.link_targets,
                  report.violations);
    CheckLinkList(m, "entry_nodes", doc.entry_nodes, doc.entry_origins,
                  report.violations);
    if (!mapping_ok) continue;  // global ids below rely on the mapping
    // Every local edge and every cross link must be witnessed by an element
    // edge (the converse — every element edge covered — is checked in the
    // global sweep below).
    for (NodeId local = 0; local < doc.graph.NumNodes(); ++local) {
      const NodeId gu = doc.global_nodes[local];
      for (const graph::Digraph::Arc& arc : doc.graph.OutArcs(local)) {
        if (!global_edges.contains(
                EdgeKey(gu, doc.global_nodes[arc.target]))) {
          report.violations.push_back(
              MetaPrefix(m) + "local edge " + std::to_string(local) + " -> " +
              std::to_string(arc.target) +
              " has no witnessing element edge " + std::to_string(gu) +
              " -> " + std::to_string(doc.global_nodes[arc.target]));
        }
      }
    }
    doc.link_targets.ForEach([&](NodeId local,
                                 std::span<const NodeId> targets) {
      recorded_cross_links += targets.size();
      const NodeId gu =
          local < doc.global_nodes.size() ? doc.global_nodes[local] : n;
      for (const NodeId gv : targets) {
        if (gu >= n || gv >= n || !global_edges.contains(EdgeKey(gu, gv))) {
          report.violations.push_back(
              MetaPrefix(m) + "stale L_i entry: recorded cross link " +
              std::to_string(gu) + " -> " + std::to_string(gv) +
              " (local source " + std::to_string(local) +
              ") has no witnessing element edge");
        }
      }
    });
    doc.entry_origins.ForEach([&](NodeId local,
                                  std::span<const NodeId> origins) {
      const NodeId gv =
          local < doc.global_nodes.size() ? doc.global_nodes[local] : n;
      for (const NodeId gu : origins) {
        if (gu >= n || gv >= n || !global_edges.contains(EdgeKey(gu, gv))) {
          report.violations.push_back(
              MetaPrefix(m) + "stale entry point: recorded origin " +
              std::to_string(gu) + " for entry node " + std::to_string(gv) +
              " has no witnessing element edge");
        }
      }
    });
  }
  if (mapping_ok) {
    // Global sweep: every element edge is reflected exactly once — inside
    // one local graph, or as an L_i cross link with a matching entry point.
    std::unordered_set<uint64_t> seen;
    for (NodeId u = 0; u < n && report.violations.size() < 64; ++u) {
      const uint32_t mu = set.meta_of_node[u];
      const NodeId lu = set.local_of_node[u];
      const core::MetaDocument& src = set.docs[mu];
      for (const graph::Digraph::Arc& arc : global.OutArcs(u)) {
        const NodeId v = arc.target;
        if (!seen.insert(EdgeKey(u, v)).second) continue;  // parallel edge
        const uint32_t mv = set.meta_of_node[v];
        const NodeId lv = set.local_of_node[v];
        bool internal = false;
        if (mu == mv) {
          for (const graph::Digraph::Arc& local_arc : src.graph.OutArcs(lu)) {
            if (local_arc.target == lv) {
              internal = true;
              break;
            }
          }
        }
        const std::span<const NodeId> targets = src.link_targets.At(lu);
        const bool crossed =
            std::find(targets.begin(), targets.end(), v) != targets.end();
        if (internal == crossed) {
          report.violations.push_back(
              "element edge " + std::to_string(u) + " -> " +
              std::to_string(v) +
              (internal
                   ? " is reflected in meta document " + std::to_string(mu) +
                         " AND recorded as a cross link"
                   : " is neither reflected in a local graph nor recorded "
                     "in L_" +
                         std::to_string(mu)));
          continue;
        }
        if (crossed) {
          const core::MetaDocument& dst = set.docs[mv];
          const std::span<const NodeId> origins = dst.entry_origins.At(lv);
          if (std::find(origins.begin(), origins.end(), u) ==
              origins.end()) {
            report.violations.push_back(
                "cross link " + std::to_string(u) + " -> " +
                std::to_string(v) + " has no entry point in meta document " +
                std::to_string(mv));
          }
        }
      }
    }
    if (report.violations.empty() &&
        recorded_cross_links != set.num_cross_links) {
      report.violations.push_back(
          "meta documents record " + std::to_string(recorded_cross_links) +
          " cross links, the set header claims " +
          std::to_string(set.num_cross_links));
    }
  }

  // --- Landmark cache: deep mode re-derives sampled distance rows by BFS
  // over the partition quotient graph and compares them with the tables the
  // PEE's A* consults (flix/landmarks.h). Cheap modes skip it — the cache is
  // advisory and a damaged one is already dropped at load time.
  if (options.index.deep) {
    const core::LandmarkCache* landmarks = set.landmarks.Snapshot();
    if (landmarks != nullptr && !landmarks->empty()) {
      ++report.checks_run;
      if (landmarks->num_nodes() != n) {
        report.violations.push_back(
            "landmark cache: covers " +
            std::to_string(landmarks->num_nodes()) +
            " elements, the collection has " + std::to_string(n));
      } else if (const Status status =
                     landmarks->Validate(global, /*sample_nodes=*/64,
                                         options.index.seed);
                 !status.ok()) {
        report.violations.push_back("landmark cache: " +
                                    std::string(status.message()));
      }
    }
  }

  // --- Per-strategy structural invariants + differential probes. ---
  if (options.validate_indexes) {
    for (uint32_t m = 0; m < set.docs.size(); ++m) {
      const core::MetaDocument& doc = set.docs[m];
      ++report.checks_run;
      // Snapshot: a migration may swap the handle while the walk runs.
      const std::shared_ptr<index::PathIndex> index = doc.index.Acquire();
      if (index == nullptr) {
        report.violations.push_back(MetaPrefix(m) + "has no index");
        continue;
      }
      const Status status = index->Validate(doc.graph, options.index);
      if (!status.ok()) {
        report.violations.push_back(MetaPrefix(m) + "[" +
                                    std::string(index->name()) + "] " +
                                    status.message());
      }
    }
  }

  registry.GetCounter(obs::names::kCheckValidations).Add(report.checks_run);
  registry.GetCounter(obs::names::kCheckViolations).Add(report.violations.size());
  return report;
}

}  // namespace flix::check
