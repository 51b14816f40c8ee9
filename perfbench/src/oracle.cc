#include "oracle.h"

namespace perfbench {

Oracle::Oracle(const flix::xml::Collection& collection)
    : graph_(collection.BuildGraph()),
      stamp_(graph_.NumNodes(), 0),
      dist_(graph_.NumNodes(), flix::kUnreachable) {
  order_.reserve(graph_.NumNodes());
}

void Oracle::Explore(flix::NodeId start) {
  ++epoch_;
  start_ = start;
  order_.clear();
  stamp_[start] = epoch_;
  dist_[start] = 0;
  order_.push_back(start);
  for (size_t head = 0; head < order_.size(); ++head) {
    const flix::NodeId n = order_[head];
    for (const auto& arc : graph_.OutArcs(n)) {
      if (stamp_[arc.target] == epoch_) continue;
      stamp_[arc.target] = epoch_;
      dist_[arc.target] = dist_[n] + 1;
      order_.push_back(arc.target);
    }
  }
}

SetDigest Oracle::Tagged(flix::TagId tag) const {
  SetDigest digest;
  for (const flix::NodeId n : order_) {
    if (n != start_ && graph_.Tag(n) == tag) digest.Add(n, dist_[n]);
  }
  return digest;
}

flix::Distance Oracle::Distance(flix::NodeId a, flix::NodeId b) {
  if (a == b) return 0;
  ++epoch_;
  start_ = a;
  order_.clear();
  stamp_[a] = epoch_;
  dist_[a] = 0;
  order_.push_back(a);
  for (size_t head = 0; head < order_.size(); ++head) {
    const flix::NodeId n = order_[head];
    for (const auto& arc : graph_.OutArcs(n)) {
      if (stamp_[arc.target] == epoch_) continue;
      if (arc.target == b) return dist_[n] + 1;
      stamp_[arc.target] = epoch_;
      dist_[arc.target] = dist_[n] + 1;
      order_.push_back(arc.target);
    }
  }
  return flix::kUnreachable;
}

}  // namespace perfbench
