// Meta documents: the unit FliX indexes (paper Section 3.1).
//
// A meta document owns the induced local element graph of its member
// elements (minus any edges the MDB decided to keep *outside* the index),
// the path index built for it, and the bookkeeping for cross links: the set
// L_i of elements with outgoing links not reflected in the index, and the
// entry points reachable from other meta documents.
#ifndef FLIX_FLIX_META_DOCUMENT_H_
#define FLIX_FLIX_META_DOCUMENT_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/types.h"
#include "graph/digraph.h"
#include "index/path_index.h"
#include "storage/flat.h"

namespace flix::core {

// A refcounted, swappable handle to a meta document's path index.
//
// The workload-adaptive ISS (flix/adapt.h) replaces indexes while queries
// run. Cursors hold raw pointers into index internals, and PathIndex's
// contract requires an index to outlive its cursors — so the query paths
// take Acquire() snapshots (shared_ptr) and pin them for as long as any
// cursor they opened is alive. Replace() publishes a new index without
// disturbing snapshots already handed out; the displaced index dies when
// the last in-flight query holding it drains.
//
// Acquire/Replace synchronize through a spinlock around a shared_ptr copy —
// one uncontended atomic exchange per entry point processed, no allocation.
// The unsynchronized conveniences (get, ->, *, bool) are for the
// single-writer phases (build, load, tests); code that can race a migration
// must go through Acquire().
class IndexHandle {
 public:
  IndexHandle() = default;
  IndexHandle(const IndexHandle&) = delete;
  IndexHandle& operator=(const IndexHandle&) = delete;
  // SAFETY: moves happen only while the MDB grows its docs vector
  // (single-threaded build phase), never concurrently with Acquire/Replace,
  // so reading `other.index_` without `other.lock_` cannot race. The
  // analysis cannot see cross-object phases, hence the opt-out.
  IndexHandle(IndexHandle&& other) noexcept NO_THREAD_SAFETY_ANALYSIS
      : index_(std::move(other.index_)) {}
  // SAFETY: same single-threaded build-phase contract as the move ctor.
  IndexHandle& operator=(IndexHandle&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS {
    index_ = std::move(other.index_);
    return *this;
  }
  IndexHandle& operator=(std::unique_ptr<index::PathIndex> index) {
    Replace(std::shared_ptr<index::PathIndex>(std::move(index)));
    return *this;
  }

  // Snapshot for query-path use; keeps the index alive past a Replace().
  std::shared_ptr<index::PathIndex> Acquire() const EXCLUDES(lock_) {
    std::shared_ptr<index::PathIndex> snapshot;
    {
      SpinLockHolder hold(lock_);
      snapshot = index_;
    }
    return snapshot;
  }

  // Publishes `next` as the current index. The displaced index is released
  // outside the lock (its destruction may be the heavy part).
  void Replace(std::shared_ptr<index::PathIndex> next) EXCLUDES(lock_) {
    {
      SpinLockHolder hold(lock_);
      index_.swap(next);
    }
  }

  // SAFETY: the unsynchronized conveniences below are for the single-writer
  // phases (build, load, tests) documented in the class comment; code that
  // can race a migration must go through Acquire().
  index::PathIndex* get() const NO_THREAD_SAFETY_ANALYSIS {
    return index_.get();
  }
  // SAFETY: single-writer phases only, as get().
  index::PathIndex* operator->() const NO_THREAD_SAFETY_ANALYSIS {
    return index_.get();
  }
  // SAFETY: single-writer phases only, as get().
  index::PathIndex& operator*() const NO_THREAD_SAFETY_ANALYSIS {
    return *index_;
  }
  // SAFETY: single-writer phases only, as get().
  explicit operator bool() const NO_THREAD_SAFETY_ANALYSIS {
    return index_ != nullptr;
  }
  // SAFETY: single-writer phases only, as get().
  friend bool operator==(const IndexHandle& handle,
                         std::nullptr_t) NO_THREAD_SAFETY_ANALYSIS {
    return handle.index_ == nullptr;
  }

 private:
  mutable SpinLock lock_ ACQUIRED_AFTER(lockorder::kPartitionHandle)
      ACQUIRED_BEFORE(lockorder::kCache);
  std::shared_ptr<index::PathIndex> index_ GUARDED_BY(lock_);
};

// The framework-wide ALT landmark cache (src/flix/landmarks.h). Only the
// single-writer phases install it: Build, Load, and an offline
// Flix::RebuildLandmarks (`flixctl landmarks --refresh`). Nothing else ever
// changes the graph or the partitioning it was computed from, so queries
// read it through a plain pointer — no lock, no refcount.
//
// The handle also carries the runtime enable switch (`flixctl
// --no-landmarks`, the differential tests): when disabled, Acquire()
// returns null and the PEE falls back to the blind Dijkstra; Snapshot()
// ignores the switch for save/stats/validation paths.
class LandmarkCache;

class LandmarkHandle {
 public:
  LandmarkHandle() = default;
  LandmarkHandle(const LandmarkHandle&) = delete;
  LandmarkHandle& operator=(const LandmarkHandle&) = delete;
  LandmarkHandle(LandmarkHandle&& other) noexcept
      : enabled_(other.enabled_.load(std::memory_order_relaxed)),
        cache_(std::move(other.cache_)) {}
  LandmarkHandle& operator=(LandmarkHandle&& other) noexcept {
    enabled_.store(other.enabled_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    cache_ = std::move(other.cache_);
    return *this;
  }

  // Query-path view: null when no cache is installed or the switch is off.
  // Callers must also check LandmarkCache::empty().
  const LandmarkCache* Acquire() const {
    return enabled_.load(std::memory_order_relaxed) ? cache_.get() : nullptr;
  }

  // Unconditional view (persistence, stats, validation).
  const LandmarkCache* Snapshot() const { return cache_.get(); }

  // Installs `cache`; single-writer phases only (see the class comment).
  void Set(std::shared_ptr<const LandmarkCache> cache) {
    cache_ = std::move(cache);
  }

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{true};
  // shared_ptr for its type-erased deleter: LandmarkCache is incomplete
  // here (landmarks.h includes this header).
  std::shared_ptr<const LandmarkCache> cache_;
};

class MetaDocument {
 public:
  MetaDocument() = default;
  MetaDocument(MetaDocument&&) = default;
  MetaDocument& operator=(MetaDocument&&) = default;

  uint32_t id = 0;

  // All link bookkeeping below is dual-mode (storage/flat.h): owned vectors
  // and hash maps while the MDB builds, borrowed spans into the file mapping
  // after a paged load. The read accessors are identical either way.

  // Local node i corresponds to global element global_nodes[i].
  storage::FlatVec<NodeId> global_nodes;

  // Local element graph (the edges the index will reflect).
  graph::Digraph graph;

  // The index built by the Index Builder (null until then); a refcounted
  // handle so the adaptive ISS can swap strategies under live queries.
  IndexHandle index;

  // L_i: local ids of elements with outgoing links that are *not* reflected
  // in the index, ascending. The PEE intersects descendants(e) with this set
  // via PathIndex::ReachableAmong.
  storage::FlatVec<NodeId> link_sources;

  // Outgoing link targets per link source (global element ids).
  storage::FlatMultiMap link_targets;

  // Reverse direction, for ancestor queries: local ids of elements that are
  // targets of unindexed links, ascending, plus their global link origins.
  storage::FlatVec<NodeId> entry_nodes;
  storage::FlatMultiMap entry_origins;

  size_t NumNodes() const { return graph.NumNodes(); }

  // Registers an outgoing cross link (source local, target global).
  void AddCrossLink(NodeId local_source, NodeId global_target);
  // Registers an incoming cross link (target local, origin global).
  void AddEntry(NodeId local_target, NodeId global_origin);

  // Sorts/dedups link_sources and entry_nodes; call once after construction.
  void FinalizeLinks();

  size_t MemoryBytes() const;
};

// The full output of the Meta Document Builder: the meta documents plus the
// global-node -> (meta document, local node) mapping.
struct MetaDocumentSet {
  std::vector<MetaDocument> docs;
  storage::FlatVec<uint32_t> meta_of_node;
  storage::FlatVec<NodeId> local_of_node;
  // Total number of cross (meta-document-spanning or unindexed) links.
  size_t num_cross_links = 0;
  // Framework-wide ALT landmark cache (flix/landmarks.h); null until built
  // or loaded, fixed while queries run.
  LandmarkHandle landmarks;
};

}  // namespace flix::core

#endif  // FLIX_FLIX_META_DOCUMENT_H_
