// Dual-mode flat containers: the building blocks of the paged index format.
//
// Every persistent structure in FliX (strategy payloads, meta-document
// tables, graphs) is expressed over three container shapes:
//
//   * FlatVec<T>      — a flat array of trivially copyable elements,
//   * FlatRows<T>     — a list of variable-length rows (CSR: offsets + flat),
//   * FlatMultiMap    — a sparse id -> id-list map (sorted keys + CSR).
//
// Each container either *owns* heap storage (the build/mutation mode — the
// classic vectors the in-memory code always used) or *views* immutable
// storage inside a memory-mapped index file (zero-copy read mode). All read
// accessors work identically in both modes, so one query implementation
// serves heap-built and mmap-loaded indexes alike; mutating accessors are
// owned-mode only and FLIX_DCHECK otherwise.
//
// Views never copy and never allocate; they borrow the mapping, which must
// outlive the container (Flix pins the mapped file for the instance's
// lifetime).
#ifndef FLIX_STORAGE_FLAT_H_
#define FLIX_STORAGE_FLAT_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/dcheck.h"
#include "common/status.h"
#include "common/types.h"

namespace flix::storage {

// A flat array: owned std::vector<T> or a borrowed span into a mapping.
template <typename T>
class FlatVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  FlatVec() = default;
  FlatVec(std::vector<T> v) : owned_(std::move(v)) {}  // NOLINT(runtime/explicit)
  FlatVec& operator=(std::vector<T> v) {
    owned_ = std::move(v);
    view_ = {};
    is_view_ = false;
    return *this;
  }

  static FlatVec FromView(std::span<const T> view) {
    FlatVec v;
    v.view_ = view;
    v.is_view_ = true;
    return v;
  }

  bool is_view() const { return is_view_; }
  size_t size() const { return is_view_ ? view_.size() : owned_.size(); }
  bool empty() const { return size() == 0; }
  const T* data() const { return is_view_ ? view_.data() : owned_.data(); }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  std::span<const T> span() const { return {data(), size()}; }

  // Owned-mode mutation (build paths and the corruption test hooks). There
  // is deliberately no non-const operator[]: reads through a non-const
  // reference must take the view-aware const overload; writers index
  // MutableOwned().
  void assign(size_t n, const T& value) {
    FLIX_DCHECK(!is_view_, "FlatVec: mutation of a mapped view");
    owned_.assign(n, value);
  }
  void resize(size_t n) {
    FLIX_DCHECK(!is_view_, "FlatVec: mutation of a mapped view");
    owned_.resize(n);
  }
  void reserve(size_t n) {
    FLIX_DCHECK(!is_view_, "FlatVec: mutation of a mapped view");
    owned_.reserve(n);
  }
  void push_back(const T& value) {
    FLIX_DCHECK(!is_view_, "FlatVec: mutation of a mapped view");
    owned_.push_back(value);
  }
  std::vector<T>& MutableOwned() {
    FLIX_DCHECK(!is_view_, "FlatVec: mutation of a mapped view");
    return owned_;
  }

  // Payload footprint. A view's bytes live in the mapping, but they are
  // still this structure's data — report them so index size accounting
  // (paper Table 1) stays meaningful across formats.
  size_t MemoryBytes() const {
    return is_view_ ? view_.size_bytes() : owned_.capacity() * sizeof(T);
  }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
  bool is_view_ = false;
};

// Variable-length rows: owned nested vectors or a borrowed CSR view
// (offsets[i] .. offsets[i+1] delimit row i inside the flat array).
template <typename T>
class FlatRows {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  FlatRows() = default;
  FlatRows(std::vector<std::vector<T>> rows)  // NOLINT(runtime/explicit)
      : owned_(std::move(rows)) {}
  FlatRows& operator=(std::vector<std::vector<T>> rows) {
    owned_ = std::move(rows);
    offsets_ = {};
    flat_ = {};
    is_view_ = false;
    return *this;
  }

  // Borrow a CSR pair. Rejects malformed shapes (non-monotonic offsets or
  // offsets pointing past the flat array) so a corrupt mapping can never
  // produce out-of-bounds row spans.
  static StatusOr<FlatRows> FromView(std::span<const uint64_t> offsets,
                                     std::span<const T> flat) {
    if (offsets.empty()) {
      return InvalidArgumentError("flat rows: empty offset array");
    }
    if (offsets.front() != 0 || offsets.back() != flat.size()) {
      return InvalidArgumentError("flat rows: offsets do not cover the flat "
                                  "array");
    }
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i] < offsets[i - 1]) {
        return InvalidArgumentError("flat rows: offsets not monotonic");
      }
    }
    FlatRows rows;
    rows.offsets_ = offsets;
    rows.flat_ = flat;
    rows.is_view_ = true;
    return rows;
  }

  bool is_view() const { return is_view_; }
  size_t size() const {
    return is_view_ ? offsets_.size() - 1 : owned_.size();
  }
  bool empty() const { return size() == 0; }

  std::span<const T> operator[](size_t i) const {
    if (is_view_) {
      return flat_.subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
    }
    return {owned_[i].data(), owned_[i].size()};
  }

  size_t TotalEntries() const {
    if (is_view_) return flat_.size();
    size_t total = 0;
    for (const auto& row : owned_) total += row.size();
    return total;
  }

  // Owned-mode mutation.
  void Assign(size_t n) {
    FLIX_DCHECK(!is_view_, "FlatRows: mutation of a mapped view");
    owned_.assign(n, {});
  }
  std::vector<T>& Row(size_t i) {
    FLIX_DCHECK(!is_view_, "FlatRows: mutation of a mapped view");
    return owned_[i];
  }
  std::vector<std::vector<T>>& OwnedRows() {
    FLIX_DCHECK(!is_view_, "FlatRows: mutation of a mapped view");
    return owned_;
  }

  // Serializes to a CSR pair; works in both modes (paged saves of a live
  // mmap-loaded instance re-flatten the borrowed view).
  void Flatten(std::vector<uint64_t>& offsets, std::vector<T>& flat) const {
    const size_t n = size();
    offsets.clear();
    offsets.reserve(n + 1);
    flat.clear();
    flat.reserve(TotalEntries());
    offsets.push_back(0);
    for (size_t i = 0; i < n; ++i) {
      const std::span<const T> row = (*this)[i];
      flat.insert(flat.end(), row.begin(), row.end());
      offsets.push_back(flat.size());
    }
  }

  size_t MemoryBytes() const {
    if (is_view_) return offsets_.size_bytes() + flat_.size_bytes();
    size_t bytes = owned_.capacity() * sizeof(std::vector<T>);
    for (const auto& row : owned_) bytes += row.capacity() * sizeof(T);
    return bytes;
  }

 private:
  std::vector<std::vector<T>> owned_;
  std::span<const uint64_t> offsets_;
  std::span<const T> flat_;
  bool is_view_ = false;
};

// Sparse NodeId -> NodeId-list map (the cross-link tables L_i / entry
// origins): owned hash map or a borrowed (sorted keys, CSR values) view
// answered by binary search. Key sets are small (link sources per meta
// document), so the log-k probe is noise next to the index work around it.
class FlatMultiMap {
 public:
  FlatMultiMap() = default;

  static StatusOr<FlatMultiMap> FromView(std::span<const NodeId> keys,
                                         std::span<const uint64_t> offsets,
                                         std::span<const NodeId> flat) {
    if (offsets.size() != keys.size() + 1) {
      return InvalidArgumentError("flat map: offset/key count mismatch");
    }
    for (size_t i = 1; i < keys.size(); ++i) {
      if (keys[i] <= keys[i - 1]) {
        return InvalidArgumentError("flat map: keys not strictly ascending");
      }
    }
    StatusOr<FlatRows<NodeId>> rows = FlatRows<NodeId>::FromView(offsets, flat);
    if (!rows.ok()) return rows.status();
    FlatMultiMap map;
    map.keys_ = keys;
    map.rows_ = std::move(rows).value();
    map.is_view_ = true;
    return map;
  }

  bool is_view() const { return is_view_; }
  size_t NumKeys() const { return is_view_ ? keys_.size() : map_.size(); }
  bool empty() const { return NumKeys() == 0; }

  // Values for `key`; empty span when absent.
  std::span<const NodeId> At(NodeId key) const {
    if (is_view_) {
      size_t lo = 0;
      size_t hi = keys_.size();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (keys_[mid] < key) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == keys_.size() || keys_[lo] != key) return {};
      return rows_[lo];
    }
    const auto it = map_.find(key);
    if (it == map_.end()) return {};
    return {it->second.data(), it->second.size()};
  }

  bool Contains(NodeId key) const {
    return !At(key).empty() || (!is_view_ && map_.contains(key));
  }

  size_t TotalValues() const {
    if (is_view_) return rows_.TotalEntries();
    size_t total = 0;
    for (const auto& [key, values] : map_) {
      (void)key;
      total += values.size();
    }
    return total;
  }

  // Visits every (key, values) pair. View mode iterates in ascending key
  // order; owned mode in hash order — callers that need determinism (the
  // paged writer) go through Flatten instead.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (is_view_) {
      for (size_t i = 0; i < keys_.size(); ++i) fn(keys_[i], rows_[i]);
      return;
    }
    for (const auto& [key, values] : map_) {
      fn(key, std::span<const NodeId>(values.data(), values.size()));
    }
  }

  // Owned-mode mutation.
  void Add(NodeId key, NodeId value) {
    FLIX_DCHECK(!is_view_, "FlatMultiMap: mutation of a mapped view");
    map_[key].push_back(value);
  }

  // Deterministic (ascending-key) flattening; works in both modes.
  void Flatten(std::vector<NodeId>& keys, std::vector<uint64_t>& offsets,
               std::vector<NodeId>& flat) const {
    keys.clear();
    offsets.clear();
    flat.clear();
    if (is_view_) {
      keys.assign(keys_.begin(), keys_.end());
      rows_.Flatten(offsets, flat);
      return;
    }
    keys.reserve(map_.size());
    for (const auto& [key, values] : map_) {
      (void)values;
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    offsets.reserve(keys.size() + 1);
    offsets.push_back(0);
    for (const NodeId key : keys) {
      const auto& values = map_.at(key);
      flat.insert(flat.end(), values.begin(), values.end());
      offsets.push_back(flat.size());
    }
  }

  size_t MemoryBytes() const {
    if (is_view_) return keys_.size_bytes() + rows_.MemoryBytes();
    size_t bytes = 0;
    for (const auto& [key, values] : map_) {
      (void)key;
      // Rough per-bucket overhead matching the old accounting.
      bytes += values.capacity() * sizeof(NodeId) + 32;
    }
    return bytes;
  }

 private:
  std::unordered_map<NodeId, std::vector<NodeId>> map_;
  std::span<const NodeId> keys_;
  FlatRows<NodeId> rows_;
  bool is_view_ = false;
};

}  // namespace flix::storage

#endif  // FLIX_STORAGE_FLAT_H_
