// Correctness oracle: plain BFS over the collection's element graph, and
// the order-independent digests the benchmark compares answers by.
//
// The oracle is built during set-up but outside the timed `setup_s`, and
// answers are checked after the measured window, so checking never sits
// inside a timed operation. Digests let a full result set be compared
// without keeping it: a drain keeps (count, sum of hashed nodes) while it
// runs, and the oracle computes the same pair from its BFS.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/digraph.h"
#include "xml/collection.h"

namespace perfbench {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Running digest of a result set: node identity only, or node and distance.
struct SetDigest {
  uint64_t count = 0;
  uint64_t nodes = 0;  // sum of Mix64(node): order-independent
  uint64_t exact = 0;  // sum of Mix64(node, distance)

  void Add(flix::NodeId node, flix::Distance distance) {
    ++count;
    nodes += Mix64(node);
    exact += Mix64((uint64_t{node} << 32) ^ static_cast<uint32_t>(distance));
  }
  bool SameSet(const SetDigest& other) const {
    return count == other.count && nodes == other.nodes;
  }
  bool SameDistances(const SetDigest& other) const {
    return SameSet(other) && exact == other.exact;
  }
};

class Oracle {
 public:
  // Builds the global element graph (tree and link edges) of `collection`.
  explicit Oracle(const flix::xml::Collection& collection);

  const flix::graph::Digraph& graph() const { return graph_; }

  // Full forward BFS from `start`; afterwards Dist() answers for any node.
  void Explore(flix::NodeId start);
  flix::Distance Dist(flix::NodeId node) const {
    return stamp_[node] == epoch_ ? dist_[node] : flix::kUnreachable;
  }

  // Proper descendants of the explored start carrying `tag`.
  SetDigest Tagged(flix::TagId tag) const;

  // Exact shortest distance a -> b (kUnreachable if none). Reuses the
  // exploration state: call Explore again before the next Tagged/Dist.
  flix::Distance Distance(flix::NodeId a, flix::NodeId b);

 private:
  flix::graph::Digraph graph_;
  flix::NodeId start_ = flix::kInvalidNode;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamp_;
  std::vector<flix::Distance> dist_;
  std::vector<flix::NodeId> order_;  // nodes reached, in BFS order
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
