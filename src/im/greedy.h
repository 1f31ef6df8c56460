#ifndef INFLEX_IM_GREEDY_H_
#define INFLEX_IM_GREEDY_H_

#include <optional>
#include <vector>

#include "im/snapshot_oracle.h"
#include "im/spread_estimator.h"
#include "util/thread_pool.h"

namespace inflex {
namespace im {

/// \brief Shared knobs for the seed-selection algorithms.
struct SeedSelectionOptions {
  /// Evaluate the first iteration's n marginal gains across the thread pool.
  bool parallel_first_iteration = true;
  ThreadPool* pool = nullptr;  // nullptr: the process-global pool
  /// Optional seed-candidate restriction (segment-targeted campaigns): when
  /// non-empty, must have one entry per node and only nodes with a non-zero
  /// entry are eligible as seeds. Influence still propagates through
  /// everyone — only WHO can be targeted is restricted.
  std::vector<uint8_t> candidate_mask;
};

/// Validates a candidate mask against the oracle size and k; returns the
/// number of eligible candidates (num_nodes when the mask is empty).
Result<size_t> ValidateCandidateMask(const SeedSelectionOptions& options,
                                     size_t num_nodes, size_t k);

/// True when node v may be chosen as a seed under `options`.
inline bool IsCandidate(const SeedSelectionOptions& options, size_t v) {
  return options.candidate_mask.empty() || options.candidate_mask[v] != 0;
}

/// The first iteration of greedy/CELF/CELF++: the marginal gain of every
/// node w.r.t. the committed seeds, or, given `exclude`, w.r.t. the
/// committed seeds plus `exclude` (MarginalGainPair's mg2). Uses the
/// oracle's snapshot-major batch calls over node chunks, each chunk with its
/// own workspace; the chunks run across options.pool when
/// options.parallel_first_iteration and there are at least 256 nodes, else
/// as one serial chunk. Gains are integer reach counts divided by W, so they
/// do not depend on the chunking.
std::vector<double> FirstIterationGains(
    const SnapshotSpreadOracle& oracle, const SeedSelectionOptions& options,
    std::optional<graph::NodeId> exclude = std::nullopt);

/// Plain greedy (Kempe et al. 2003): k iterations, each recomputing the
/// marginal gain of every node. O(n·k) oracle evaluations — the reference
/// implementation used to validate CELF/CELF++ (all three must return the
/// same seed sequence on the same oracle, up to gain ties).
///
/// The oracle's committed seed set is reset first and holds the selected
/// seeds afterwards. Fails when k is 0 or exceeds the node count.
Result<SeedSelectionResult> SelectSeedsGreedy(
    SnapshotSpreadOracle* oracle, size_t k,
    const SeedSelectionOptions& options = {});

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_GREEDY_H_
