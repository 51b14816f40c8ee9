// On-disk layout of the paged (mmap-able) index format.
//
// A paged index file is laid out as
//
//   [superblock (page 0)] [segment]* [segment table]
//
// where every segment starts on a page boundary and holds one logical unit:
// the framework-global tables, one meta document's tables, or one meta
// document's strategy payload. A segment is self-describing — a small
// header, a directory of typed flat arrays, then the 64-byte-aligned array
// payloads — so readers bounds-check every access against the directory
// instead of trusting offsets blindly.
//
// Everything is little-endian, explicitly sized and explicitly aligned; the
// superblock carries an endianness marker so a big-endian reader fails fast
// instead of misinterpreting the data. Structures here are frozen by
// kPagedVersion: layout changes bump the version, and readers reject
// versions they do not understand (forward compat), while old files keep
// loading under new code until the version is retired (backward compat —
// see DESIGN.md "Paged storage format").
#ifndef FLIX_STORAGE_FORMAT_H_
#define FLIX_STORAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace flix::storage {

// "FLIXPG01" in file byte order.
inline constexpr uint64_t kPagedMagic = 0x3130475058494C46ull;
// Leading u32 of the retired stream index format ("FLIX"). Open recognizes
// it only to tell the operator to rebuild such an index.
inline constexpr uint32_t kRetiredStreamMagic = 0x464C4958;
inline constexpr uint32_t kPagedVersion = 1;
// Written as 0x01020304; a byte-swapped reader sees 0x04030201.
inline constexpr uint32_t kEndianMarker = 0x01020304;
inline constexpr uint32_t kPageBytes = 4096;
// Array payloads are aligned to cache-line granularity within a segment;
// segments themselves start page-aligned, so mapped arrays are 64-byte
// aligned in memory too.
inline constexpr uint32_t kArrayAlign = 64;

// FNV-1a 64-bit. Chosen over CRC for simplicity: corruption detection, not
// adversarial integrity (the mutation tests flip bytes, not forge hashes).
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t Fnv1a64(const void* data, size_t len,
                        uint64_t seed = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

// What one segment stores.
enum class SegmentKind : uint32_t {
  // Framework-global tables (node -> meta document mapping).
  kFramework = 1,
  // One meta document's tables: local graph, global-node list, cross links.
  kPartition = 2,
  // One meta document's strategy payload; SegmentEntry::strategy names the
  // StrategyKind.
  kIndex = 3,
  // The ALT landmark distance cache (src/flix/landmarks.h). Optional and
  // advisory: a reader that finds it damaged (or absent) runs point queries
  // blind instead of failing the load, so this segment is exempt from the
  // up-front checksum sweep and self-verified by the loader.
  kLandmarks = 4,
};

// One row of the segment table.
struct SegmentEntry {
  uint32_t kind = 0;       // SegmentKind
  uint32_t partition = 0;  // meta document id; 0 for kFramework
  uint32_t strategy = 0;   // StrategyKind for kIndex segments, else 0
  uint32_t reserved = 0;
  uint64_t offset = 0;  // absolute file offset, page-aligned
  uint64_t length = 0;  // payload bytes (before page padding)
  uint64_t checksum = 0;  // Fnv1a64 over the payload bytes
};
static_assert(sizeof(SegmentEntry) == 40);
static_assert(std::is_trivially_copyable_v<SegmentEntry>);

// Page 0. The trailing checksum covers every preceding superblock byte;
// the segment table has its own checksum so a truncated file is detected
// before any segment is touched.
struct Superblock {
  uint64_t magic = kPagedMagic;
  uint32_t version = kPagedVersion;
  uint32_t endianness = kEndianMarker;
  uint32_t page_bytes = kPageBytes;
  uint32_t superblock_bytes = 0;  // sizeof(Superblock), rejects layout drift
  uint64_t file_bytes = 0;
  uint64_t segment_table_offset = 0;
  uint64_t segment_count = 0;
  uint64_t segment_table_checksum = 0;

  // Framework identity: enough to reconstruct FlixOptions and to verify the
  // file matches the collection it is opened against.
  uint64_t num_elements = 0;
  uint32_t num_partitions = 0;
  uint32_t config = 0;
  uint32_t iss_policy = 0;
  uint32_t element_level_partitions = 0;
  uint64_t partition_bound = 0;
  uint64_t hopi_max_nodes = 0;
  uint64_t hybrid_dense_link_threshold = 0;
  uint64_t query_cache_capacity = 0;
  uint64_t num_cross_links = 0;

  // ALT landmark cache identity, carved out of the former reserved[4]
  // (zeros in pre-landmark files, so kPagedVersion is unchanged):
  // landmark_count + 1 as configured (0 = written before landmarks existed;
  // loaders then keep the FlixOptions default), and a non-zero value when a
  // kLandmarks segment was written (0 = none). The second field once held a
  // rebuild generation; writers now store 1 and loaders ignore it.
  uint64_t landmark_count_plus_one = 0;
  uint64_t landmark_generation = 0;
  uint64_t reserved[2] = {0, 0};
  uint64_t checksum = 0;
};
static_assert(sizeof(Superblock) == 160);
static_assert(sizeof(Superblock) <= kPageBytes);
static_assert(std::is_trivially_copyable_v<Superblock>);

// Segment payload prefix.
struct SegmentHeader {
  uint32_t magic = kSegmentMagic;
  uint32_t array_count = 0;

  static constexpr uint32_t kSegmentMagic = 0x31474553;  // "SEG1"
};

// One directory row inside a segment: a typed flat array. `offset` is
// relative to the segment start and kArrayAlign-aligned.
struct ArrayEntry {
  uint32_t id = 0;
  uint32_t elem_bytes = 0;
  uint64_t count = 0;
  uint64_t offset = 0;
};
static_assert(sizeof(ArrayEntry) == 24);
static_assert(std::is_trivially_copyable_v<ArrayEntry>);

inline constexpr uint64_t AlignUp(uint64_t value, uint64_t align) {
  return (value + align - 1) / align * align;
}

}  // namespace flix::storage

#endif  // FLIX_STORAGE_FORMAT_H_
