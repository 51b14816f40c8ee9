#include "flix/mdb.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "graph/partition.h"

namespace flix::core {
namespace {

constexpr uint32_t kUnassigned = UINT32_MAX;

uint64_t EdgeKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

// True per document iff its internal element graph is a tree: the parser
// guarantees the tree edges form one, so any intra-document *link* edge
// breaks it (extra parent or cycle).
std::vector<bool> ComputeTreeDocs(const MdbInput& input) {
  const graph::Digraph& g = *input.graph;
  const std::vector<uint32_t>& doc_of = *input.doc_of;
  std::vector<bool> is_tree(input.doc_roots->size(), true);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
      if (arc.kind == graph::EdgeKind::kLink &&
          doc_of[u] == doc_of[arc.target]) {
        is_tree[doc_of[u]] = false;
      }
    }
  }
  return is_tree;
}

// Assembles meta documents from a node partition and a set of edges to keep
// out of the indexes even when both endpoints share a partition.
MetaDocumentSet Assemble(const graph::Digraph& g,
                         const std::vector<uint32_t>& part_of,
                         uint32_t num_parts,
                         const std::unordered_set<uint64_t>& removed_edges) {
  MetaDocumentSet set;
  set.docs.resize(num_parts);
  set.meta_of_node = part_of;
  set.local_of_node.assign(g.NumNodes(), kInvalidNode);

  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    MetaDocument& meta = set.docs[part_of[v]];
    set.local_of_node.MutableOwned()[v] =
        static_cast<NodeId>(meta.global_nodes.size());
    meta.global_nodes.push_back(v);
  }
  for (uint32_t m = 0; m < num_parts; ++m) {
    MetaDocument& meta = set.docs[m];
    meta.id = m;
    meta.graph.Resize(meta.global_nodes.size());
    for (NodeId local = 0; local < meta.global_nodes.size(); ++local) {
      meta.graph.SetTag(local, g.Tag(meta.global_nodes[local]));
    }
  }

  // Parallel edges between the same element pair are collapsed: they carry
  // no extra connection information and a duplicate accepted link would
  // give a root two parents, breaking PPO forests.
  std::unordered_set<uint64_t> seen_edges;
  seen_edges.reserve(g.NumEdges());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const uint32_t mu = part_of[u];
    for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
      const NodeId v = arc.target;
      if (!seen_edges.insert(EdgeKey(u, v)).second) continue;
      const uint32_t mv = part_of[v];
      const bool internal =
          mu == mv && !removed_edges.contains(EdgeKey(u, v));
      if (internal) {
        set.docs[mu].graph.AddEdge(set.local_of_node[u], set.local_of_node[v],
                                   arc.kind);
      } else {
        set.docs[mu].AddCrossLink(set.local_of_node[u], v);
        set.docs[mv].AddEntry(set.local_of_node[v], u);
        ++set.num_cross_links;
      }
    }
  }
  for (MetaDocument& meta : set.docs) meta.FinalizeLinks();
  return set;
}

// Compacts a partition vector to dense ids in first-occurrence order.
uint32_t Compact(std::vector<uint32_t>& part_of) {
  uint32_t next = 0;
  std::unordered_map<uint32_t, uint32_t> seen;
  for (uint32_t& p : part_of) {
    const auto [it, inserted] = seen.emplace(p, next);
    if (inserted) ++next;
    p = it->second;
  }
  return next;
}

}  // namespace

std::vector<uint32_t> GrowTreeGroups(
    const MdbInput& input,
    std::vector<std::pair<NodeId, NodeId>>* accepted_edges) {
  const graph::Digraph& g = *input.graph;
  const std::vector<uint32_t>& doc_of = *input.doc_of;
  const std::vector<NodeId>& doc_roots = *input.doc_roots;
  const size_t num_docs = doc_roots.size();
  const std::vector<bool> is_tree = ComputeTreeDocs(input);

  // Greedy document-level spanning forest over root-targeting links: accept
  // a link u -> root(t) iff both documents are trees, t has no accepted
  // parent yet, and no document-level cycle arises. The accepted links make
  // the combined element graph of each component a forest (each claimed
  // root gains exactly one parent), which is what PPO needs.
  std::vector<uint32_t> uf(num_docs);
  for (uint32_t d = 0; d < num_docs; ++d) uf[d] = d;
  const auto find = [&](uint32_t d) {
    while (uf[d] != d) {
      uf[d] = uf[uf[d]];
      d = uf[d];
    }
    return d;
  };

  std::vector<bool> child_claimed(num_docs, false);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
      if (arc.kind != graph::EdgeKind::kLink) continue;
      const uint32_t src_doc = doc_of[u];
      const uint32_t dst_doc = doc_of[arc.target];
      if (src_doc == dst_doc || arc.target != doc_roots[dst_doc]) continue;
      if (!is_tree[src_doc] || !is_tree[dst_doc]) continue;
      if (child_claimed[dst_doc]) continue;
      const uint32_t ru = find(src_doc);
      const uint32_t rv = find(dst_doc);
      if (ru == rv) continue;  // would close a document-level cycle
      uf[ru] = rv;
      child_claimed[dst_doc] = true;
      if (accepted_edges != nullptr) {
        accepted_edges->push_back({u, arc.target});
      }
    }
  }

  // Components of tree documents become groups, numbered densely.
  std::vector<uint32_t> group_of(num_docs, kUnassigned);
  std::unordered_map<uint32_t, uint32_t> group_of_root;
  for (uint32_t d = 0; d < num_docs; ++d) {
    if (!is_tree[d]) continue;
    const uint32_t root = find(d);
    const auto [it, inserted] = group_of_root.emplace(
        root, static_cast<uint32_t>(group_of_root.size()));
    group_of[d] = it->second;
  }
  return group_of;
}

MetaDocumentSet BuildMetaDocuments(const MdbInput& input,
                                   const FlixOptions& options) {
  assert(input.graph != nullptr && input.doc_of != nullptr &&
         input.doc_roots != nullptr);
  const graph::Digraph& g = *input.graph;
  const std::vector<uint32_t>& doc_of = *input.doc_of;
  const size_t num_docs = input.doc_roots->size();

  std::vector<uint32_t> part_of(g.NumNodes(), 0);
  std::unordered_set<uint64_t> removed_edges;

  switch (options.config) {
    case MdbConfig::kNaive: {
      part_of = doc_of;
      break;
    }
    case MdbConfig::kUnconnectedHopi: {
      graph::PartitionOptions popts;
      popts.max_nodes = options.partition_bound;
      const graph::PartitionResult parts = graph::PartitionBySize(
          g, popts, options.element_level_partitions ? nullptr : &doc_of);
      part_of = parts.partition_of;
      break;
    }
    case MdbConfig::kMaximalPpo:
    case MdbConfig::kHybrid: {
      std::vector<std::pair<NodeId, NodeId>> accepted;
      std::vector<uint32_t> group_of_doc = GrowTreeGroups(input, &accepted);

      if (options.config == MdbConfig::kHybrid) {
        // Demote densely linked singleton tree groups to the HOPI region:
        // a document that joined no tree group but has many inter-document
        // links belongs to the interlinked part of the collection.
        std::vector<size_t> group_size(num_docs, 0);
        for (const uint32_t group : group_of_doc) {
          if (group != kUnassigned) ++group_size[group];
        }
        std::vector<size_t> cross_degree(num_docs, 0);
        for (NodeId u = 0; u < g.NumNodes(); ++u) {
          for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
            if (arc.kind != graph::EdgeKind::kLink) continue;
            if (doc_of[u] == doc_of[arc.target]) continue;
            ++cross_degree[doc_of[u]];
            ++cross_degree[doc_of[arc.target]];
          }
        }
        for (uint32_t d = 0; d < num_docs; ++d) {
          if (group_of_doc[d] != kUnassigned &&
              group_size[group_of_doc[d]] == 1 &&
              cross_degree[d] >= options.hybrid_dense_link_threshold) {
            group_of_doc[d] = kUnassigned;
          }
        }
        // Renumber groups densely after the demotion.
        std::unordered_map<uint32_t, uint32_t> remap;
        for (uint32_t& group : group_of_doc) {
          if (group == kUnassigned) continue;
          const auto [it, inserted] =
              remap.emplace(group, static_cast<uint32_t>(remap.size()));
          group = it->second;
        }
      }

      // Tree groups take ids [0, num_groups); leftover (non-tree or dense)
      // documents are appended after them.
      uint32_t num_groups = 0;
      for (const uint32_t group : group_of_doc) {
        if (group != kUnassigned) num_groups = std::max(num_groups, group + 1);
      }

      if (options.config == MdbConfig::kMaximalPpo) {
        // Every non-tree document becomes its own meta document.
        uint32_t next = num_groups;
        for (uint32_t d = 0; d < num_docs; ++d) {
          if (group_of_doc[d] == kUnassigned) group_of_doc[d] = next++;
        }
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          part_of[v] = group_of_doc[doc_of[v]];
        }
      } else {
        // Hybrid: size-bounded partitions over the non-tree documents.
        std::vector<NodeId> leftover_nodes;
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          if (group_of_doc[doc_of[v]] == kUnassigned) {
            leftover_nodes.push_back(v);
          }
        }
        std::vector<NodeId> local_of;
        const graph::Digraph sub = g.InducedSubgraph(leftover_nodes, &local_of);
        std::vector<uint32_t> sub_units(leftover_nodes.size());
        for (size_t i = 0; i < leftover_nodes.size(); ++i) {
          sub_units[i] = doc_of[leftover_nodes[i]];
        }
        // Compact unit ids for the partitioner.
        {
          std::unordered_map<uint32_t, uint32_t> remap;
          for (uint32_t& u : sub_units) {
            const auto [it, inserted] =
                remap.emplace(u, static_cast<uint32_t>(remap.size()));
            u = it->second;
          }
        }
        graph::PartitionOptions popts;
        popts.max_nodes = options.partition_bound;
        const graph::PartitionResult parts = graph::PartitionBySize(
            sub, popts,
            options.element_level_partitions ? nullptr : &sub_units);
        for (NodeId v = 0; v < g.NumNodes(); ++v) {
          if (group_of_doc[doc_of[v]] != kUnassigned) {
            part_of[v] = group_of_doc[doc_of[v]];
          } else {
            part_of[v] = num_groups + parts.partition_of[local_of[v]];
          }
        }
      }

      // Inside tree groups, only accepted inter-document links stay in the
      // graph; every other intra-group link edge is removed so the group
      // remains a forest for PPO.
      std::unordered_set<uint64_t> accepted_set;
      for (const auto& [u, v] : accepted) {
        accepted_set.insert(EdgeKey(u, v));
      }
      for (NodeId u = 0; u < g.NumNodes(); ++u) {
        for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
          if (arc.kind != graph::EdgeKind::kLink) continue;
          if (part_of[u] != part_of[arc.target]) continue;
          // Intra-group link in a tree group (groups are exactly the
          // partitions with id < num_groups)?
          if (part_of[u] < num_groups &&
              !accepted_set.contains(EdgeKey(u, arc.target))) {
            removed_edges.insert(EdgeKey(u, arc.target));
          }
        }
      }
      break;
    }
  }

  const uint32_t num_parts = Compact(part_of);
  return Assemble(g, part_of, num_parts, removed_edges);
}

}  // namespace flix::core
