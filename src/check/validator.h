// Framework-level index validator (the `flixctl check` backend).
//
// Verifies the whole built FliX instance bottom-up:
//   * mapping cover — the global-node -> (meta document, local node) mapping
//     and the per-meta global_nodes lists are exact inverses, so every
//     element of the collection lives in exactly one meta document;
//   * edge cover — every element-graph edge is either reflected inside one
//     meta document's local graph or recorded as a cross link (L_i entry on
//     the source side, entry point on the target side), and no local edge or
//     cross link exists without a witnessing element edge;
//   * L_i exactness — link_sources / entry_nodes are exactly the key sets of
//     link_targets / entry_origins, sorted and deduplicated;
//   * per-strategy structural invariants — each meta document's PathIndex is
//     run through its Validate() override (PPO interval nesting, HOPI label
//     consistency, APEX extent partitioning, TC row = BFS closure) plus the
//     sampled differential probes of the base class.
//
// Unlike PathIndex::Validate (first violation only), the framework walk
// collects every violation it finds, so one `flixctl check` run reports all
// broken meta documents at once. Results are counted into the
// flix.check.validations / flix.check.violations metrics.
#ifndef FLIX_CHECK_VALIDATOR_H_
#define FLIX_CHECK_VALIDATOR_H_

#include <string>
#include <vector>

#include "flix/flix.h"
#include "index/path_index.h"

namespace flix::check {

struct CheckOptions {
  // Forwarded to every PathIndex::Validate call; set `index.deep` for the
  // exhaustive variants of the sampled checks.
  index::ValidateOptions index;
  // Skip the per-meta-document index validation (framework checks only).
  bool validate_indexes = true;
};

struct CheckReport {
  // Individual validations executed (framework checks + one per index).
  size_t checks_run = 0;
  // Human-readable violation descriptions, each pinpointing the structure
  // (meta document, node, edge) that broke. Empty = everything holds.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

// Validates `flix` against the collection it was built from. Deterministic
// for a fixed options.index.seed.
CheckReport ValidateFramework(const core::Flix& flix,
                              const CheckOptions& options = {});

}  // namespace flix::check

#endif  // FLIX_CHECK_VALIDATOR_H_
