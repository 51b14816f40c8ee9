// Controlled corruption seeding for the mutation tests of the correctness
// tooling (tests/check_mutation_test.cc): each static mutator breaks exactly
// one structural invariant of one strategy, and the test suite proves that
// the matching Validate() detects it with a pinpointing message.
//
// CorruptionHook is befriended by every index class (see path_index.h); it
// must never be used outside tests. MDB-level corruptions (stale L_i
// entries, orphaned partition nodes) need no hook — MetaDocumentSet's
// fields are public.
#ifndef FLIX_CHECK_CORRUPTION_H_
#define FLIX_CHECK_CORRUPTION_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "index/apex.h"
#include "index/hopi.h"
#include "index/ppo.h"

namespace flix::index {

struct CorruptionHook {
  // PPO: swaps the preorder numbers of `a` and `b` while keeping order_
  // consistent, so the permutation invariant still holds but the interval
  // nesting of some edge breaks (pick a and b as ancestor/descendant).
  static void SwapPpoIntervals(PpoIndex& index, NodeId a, NodeId b) {
    std::vector<uint32_t>& pre = index.pre_.MutableOwned();
    std::vector<NodeId>& order = index.order_.MutableOwned();
    std::swap(pre[a], pre[b]);
    order[pre[a]] = a;
    order[pre[b]] = b;
  }

  // HOPI: drops the last entry of the first non-empty per-hub inverted
  // list, desynchronizing it from the label tables (a 2-hop enumeration
  // would silently lose that node).
  static bool DropHopiHubEntry(HopiIndex& index) {
    for (auto& list : index.inverted_in_.OwnedRows()) {
      if (!list.empty()) {
        list.pop_back();
        return true;
      }
    }
    return false;
  }

  // HOPI: skews the distance of the last out-label of `v` by +1; both the
  // label-soundness BFS probe and the inverted-list diff can catch it.
  static bool SkewHopiLabelDistance(HopiIndex& index, NodeId v) {
    if (index.out_labels_[v].empty()) return false;
    index.out_labels_.Row(v).back().distance += 1;
    return true;
  }

  // APEX: files `v` under a foreign extent without updating block_of_[v] —
  // the extent partition stops being exact. Returns false when the index
  // has a single block (no foreign extent to misfile into).
  static bool MisfileApexExtent(ApexIndex& index, NodeId v) {
    if (index.extents_.size() < 2) return false;
    const uint32_t home_block = index.block_of_[v];
    const uint32_t to_block =
        (home_block + 1) % static_cast<uint32_t>(index.extents_.size());
    auto& home = index.extents_.Row(home_block);
    home.erase(std::find(home.begin(), home.end(), v));
    index.extents_.Row(to_block).push_back(v);
    return true;
  }
};

}  // namespace flix::index

#endif  // FLIX_CHECK_CORRUPTION_H_
