#ifndef INFLEX_IM_SNAPSHOT_ORACLE_H_
#define INFLEX_IM_SNAPSHOT_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/topic_graph.h"
#include "im/spread_estimator.h"
#include "util/status.h"

namespace inflex {
namespace im {

/// \brief Live-edge snapshot spread oracle (Kempe et al.'s equivalence):
/// pre-samples W deterministic subgraphs by keeping each arc with its
/// influence probability; then σ(S) ≈ (1/W) Σ_g |reachable_g(S)|.
///
/// Supports the incremental protocol greedy/CELF/CELF++ need:
///  - MarginalGain(v): expected newly reached nodes if v joined the current
///    seed set, computed by BFS per snapshot skipping already-covered nodes;
///  - CommitSeed(v): permanently covers v's incremental reach;
/// Both are deterministic given the sampling seed, which makes lazy
/// (CELF-style) evaluation sound: a node's cached gain can only shrink as
/// the seed set grows (submodularity holds exactly per snapshot).
class SnapshotSpreadOracle {
 public:
  struct Options {
    size_t num_snapshots = 100;
    uint64_t seed = 7;
  };

  /// Samples the W snapshots of the IC instance. Fails on a probability
  /// vector of the wrong size or zero snapshots.
  static Result<SnapshotSpreadOracle> Create(
      const graph::TopicGraph& g, const graph::ArcProbabilities& arc_probs,
      const Options& options);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_snapshots() const { return num_snapshots_; }

  /// \brief Per-caller scratch (BFS stamps + frontier); one per thread when
  /// evaluating marginal gains concurrently.
  class Workspace {
   public:
    explicit Workspace(size_t num_nodes)
        : stamps_(num_nodes, 0), extra_stamps_(num_nodes, 0) {
      frontier_.reserve(64);
    }

   private:
    friend class SnapshotSpreadOracle;
    std::vector<uint32_t> stamps_;
    std::vector<uint32_t> extra_stamps_;  // marks an auxiliary covered set
    std::vector<graph::NodeId> frontier_;
    uint32_t epoch_ = 0;
    uint32_t extra_epoch_ = 0;
  };

  Workspace MakeWorkspace() const { return Workspace(num_nodes_); }

  /// Average number of nodes v would newly reach across snapshots, given the
  /// currently committed seeds. Thread-safe w.r.t. other MarginalGain calls.
  double MarginalGain(graph::NodeId v, Workspace* ws) const;

  /// Batch form of MarginalGain for the nodes [begin, end): sets
  /// counts[v - begin] to the number of nodes v newly reaches, summed over
  /// the snapshots (GainOfCount turns it into MarginalGain(v)). Runs one
  /// snapshot at a time across the whole range, so that snapshot's adjacency
  /// stays in cache. Thread-safe w.r.t. other const calls.
  void ReachCounts(graph::NodeId begin, graph::NodeId end, Workspace* ws,
                   uint64_t* counts) const;

  /// Batch form of MarginalGainPair's mg2 for the nodes [begin, end):
  /// counts[v - begin] = Σ_s |R_s(v) \ R_s(other)|, where R_s(x) is x's
  /// reach over the uncovered nodes of snapshot s. `other`'s reach is
  /// computed once per snapshot and each BFS from v stops at it: anything
  /// reachable from a node in R_s(other) is in R_s(other), so the pruned
  /// BFS visits exactly R_s(v) \ R_s(other). For v == other the count is 0.
  void ExclusiveReachCounts(graph::NodeId other, graph::NodeId begin,
                            graph::NodeId end, Workspace* ws,
                            uint64_t* counts) const;

  /// The average gain a summed reach count stands for.
  double GainOfCount(uint64_t count) const {
    return static_cast<double>(count) / static_cast<double>(num_snapshots_);
  }

  /// Marginal gains of `v` with respect to (a) the committed seeds — mg1 —
  /// and (b) the committed seeds plus `other` — mg2 — in one evaluation.
  /// This is the pair CELF++ maintains (gain w.r.t. S and w.r.t.
  /// S ∪ {prev_best}).
  void MarginalGainPair(graph::NodeId v, graph::NodeId other, Workspace* ws,
                        double* mg1, double* mg2) const;

  /// Commits `v` as a seed: its incremental reach becomes covered in every
  /// snapshot. Returns the realized marginal gain. Not thread-safe.
  double CommitSeed(graph::NodeId v, Workspace* ws);

  /// Spread estimate of the committed seed set.
  double CurrentSpread() const {
    return static_cast<double>(total_covered_) /
           static_cast<double>(num_snapshots_);
  }

  /// Clears the committed seed set (snapshots are kept).
  void ResetSeeds();

  /// One-shot spread of an arbitrary seed set under the snapshots (ignores
  /// committed seeds). Used by tests to cross-check the estimator.
  double SpreadOf(std::span<const graph::NodeId> seeds, Workspace* ws) const;

 private:
  SnapshotSpreadOracle() = default;

  /// Marks in ws's extra stamps (a fresh extra epoch) the nodes `other`
  /// newly reaches in snapshot s.
  void MarkReach(size_t s, graph::NodeId other, Workspace* ws) const;

  /// BFS from v over snapshot s's uncovered nodes, also skipping nodes
  /// marked by MarkReach when kExclude; returns the number of nodes reached.
  template <bool kExclude>
  uint64_t CountReach(size_t s, graph::NodeId v, Workspace* ws) const;

  // Snapshot adjacency, concatenated: snapshot g's arcs of node u live in
  // targets_[offsets_[g * (n+1) + u] .. offsets_[g * (n+1) + u + 1]).
  size_t num_nodes_ = 0;
  size_t num_snapshots_ = 0;
  std::vector<uint64_t> offsets_;
  std::vector<graph::NodeId> targets_;

  // covered_[g * n + v] != 0 iff v is reached by committed seeds in snapshot g.
  std::vector<uint8_t> covered_;
  uint64_t total_covered_ = 0;
};

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_SNAPSHOT_ORACLE_H_
