#include "im/celfpp.h"

#include <limits>
#include <queue>
#include <vector>

namespace inflex {
namespace im {

namespace {

constexpr graph::NodeId kInvalidNode =
    std::numeric_limits<graph::NodeId>::max();

struct HeapEntry {
  double gain;
  graph::NodeId node;

  bool operator<(const HeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;
  }
};

}  // namespace

Result<SeedSelectionResult> SelectSeedsCelfPp(
    SnapshotSpreadOracle* oracle, size_t k,
    const SeedSelectionOptions& options) {
  const size_t n = oracle->num_nodes();
  INFLEX_RETURN_NOT_OK(ValidateCandidateMask(options, n, k).status());

  oracle->ResetSeeds();
  SeedSelectionResult result;
  auto ws = oracle->MakeWorkspace();

  // First iteration: mg1 of every node, then mg2 w.r.t. the global best
  // candidate singleton best0 (the sequential "cur_best after examining all
  // nodes"), each as one batch pass over the oracle.
  std::vector<double> mg1 = FirstIterationGains(*oracle, options);
  result.num_evaluations += n;

  graph::NodeId best0 = kInvalidNode;
  for (size_t v = 0; v < n; ++v) {
    if (!IsCandidate(options, v)) continue;
    if (best0 == kInvalidNode || mg1[v] > mg1[best0]) {
      best0 = static_cast<graph::NodeId>(v);
    }
  }
  INFLEX_CHECK_NE(best0, kInvalidNode);
  std::vector<double> mg2 = FirstIterationGains(*oracle, options, best0);
  std::vector<graph::NodeId> prev_best(n, best0);
  prev_best[best0] = kInvalidNode;
  std::vector<uint32_t> flag(n, 0);

  std::priority_queue<HeapEntry> heap;
  for (size_t v = 0; v < n; ++v) {
    if (!IsCandidate(options, v)) continue;
    heap.push({mg1[v], static_cast<graph::NodeId>(v)});
  }

  std::vector<uint8_t> seeded(n, 0);
  graph::NodeId last_seed = kInvalidNode;
  graph::NodeId cur_best = kInvalidNode;
  double cur_best_gain = -1.0;

  while (result.seeds.size() < k && !heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const graph::NodeId u = top.node;
    if (seeded[u] || top.gain != mg1[u]) continue;  // stale duplicate
    const uint32_t cur_size = static_cast<uint32_t>(result.seeds.size());

    if (flag[u] == cur_size) {
      // Fresh: select u.
      oracle->CommitSeed(u, &ws);
      result.seeds.push_back(u);
      result.marginal_gains.push_back(mg1[u]);
      seeded[u] = 1;
      last_seed = u;
      cur_best = kInvalidNode;
      cur_best_gain = -1.0;
      continue;
    }

    if (prev_best[u] == last_seed && flag[u] + 1 == cur_size &&
        last_seed != kInvalidNode) {
      // The node that became a seed is exactly the one mg2 conditioned on:
      // reuse it, saving an oracle evaluation.
      mg1[u] = mg2[u];
      // mg2 is now stale; conditioning on the (unknown) next best is covered
      // by the recompute branch on a later surfacing.
      prev_best[u] = kInvalidNode;
    } else if (cur_best != kInvalidNode && cur_best != u) {
      oracle->MarginalGainPair(u, cur_best, &ws, &mg1[u], &mg2[u]);
      prev_best[u] = cur_best;
      ++result.num_evaluations;
    } else {
      mg1[u] = oracle->MarginalGain(u, &ws);
      mg2[u] = mg1[u];
      prev_best[u] = kInvalidNode;
      ++result.num_evaluations;
    }
    flag[u] = cur_size;
    if (mg1[u] > cur_best_gain) {
      cur_best_gain = mg1[u];
      cur_best = u;
    }
    heap.push({mg1[u], u});
  }
  result.expected_spread = oracle->CurrentSpread();
  return result;
}

}  // namespace im
}  // namespace inflex
