#include "im/snapshot_oracle.h"

#include <algorithm>

#include "util/check.h"
#include "util/random.h"

namespace inflex {
namespace im {

Result<SnapshotSpreadOracle> SnapshotSpreadOracle::Create(
    const graph::TopicGraph& g, const graph::ArcProbabilities& arc_probs,
    const Options& options) {
  if (arc_probs.size() != g.num_arcs()) {
    return Status::InvalidArgument("arc probability vector size mismatch");
  }
  if (options.num_snapshots == 0) {
    return Status::InvalidArgument("num_snapshots must be positive");
  }

  SnapshotSpreadOracle oracle;
  const size_t n = g.num_nodes();
  const size_t w = options.num_snapshots;
  oracle.num_nodes_ = n;
  oracle.num_snapshots_ = w;
  oracle.offsets_.assign(w * (n + 1), 0);
  oracle.covered_.assign(w * n, 0);
  oracle.total_covered_ = 0;

  Rng rng(options.seed);
  std::vector<graph::NodeId> kept_targets;
  kept_targets.reserve(g.num_arcs() / 4 + 16);
  for (size_t s = 0; s < w; ++s) {
    uint64_t* off = oracle.offsets_.data() + s * (n + 1);
    const uint64_t base = kept_targets.size();
    off[0] = base;
    for (graph::NodeId u = 0; u < n; ++u) {
      graph::ArcId a = g.OutArcBegin(u);
      for (graph::NodeId v : g.OutNeighbors(u)) {
        if (arc_probs[a] > 0.0 && rng.Bernoulli(arc_probs[a])) {
          kept_targets.push_back(v);
        }
        ++a;
      }
      off[u + 1] = kept_targets.size();
    }
  }
  oracle.targets_ = std::move(kept_targets);
  return oracle;
}

namespace {

// Advances a workspace epoch, clearing its stamps when the counter wraps.
uint32_t NextEpoch(uint32_t* epoch, std::vector<uint32_t>* stamps) {
  if (++*epoch == 0) {
    std::fill(stamps->begin(), stamps->end(), 0u);
    *epoch = 1;
  }
  return *epoch;
}

}  // namespace

void SnapshotSpreadOracle::MarkReach(size_t s, graph::NodeId other,
                                     Workspace* ws) const {
  const size_t n = num_nodes_;
  const uint8_t* cov = covered_.data() + s * n;
  const uint64_t* off = offsets_.data() + s * (n + 1);
  const uint32_t xepoch = NextEpoch(&ws->extra_epoch_, &ws->extra_stamps_);
  if (cov[other]) return;
  auto& frontier = ws->frontier_;
  frontier.clear();
  frontier.push_back(other);
  ws->extra_stamps_[other] = xepoch;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const graph::NodeId u = frontier[head];
    for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
      const graph::NodeId t = targets_[e];
      if (ws->extra_stamps_[t] != xepoch && !cov[t]) {
        ws->extra_stamps_[t] = xepoch;
        frontier.push_back(t);
      }
    }
  }
}

template <bool kExclude>
uint64_t SnapshotSpreadOracle::CountReach(size_t s, graph::NodeId v,
                                          Workspace* ws) const {
  const size_t n = num_nodes_;
  const uint8_t* cov = covered_.data() + s * n;
  const uint32_t xepoch = ws->extra_epoch_;
  const auto blocked = [&](graph::NodeId t) {
    return cov[t] || (kExclude && ws->extra_stamps_[t] == xepoch);
  };
  if (blocked(v)) return 0;
  const uint32_t epoch = NextEpoch(&ws->epoch_, &ws->stamps_);
  const uint64_t* off = offsets_.data() + s * (n + 1);
  auto& frontier = ws->frontier_;
  frontier.clear();
  frontier.push_back(v);
  ws->stamps_[v] = epoch;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const graph::NodeId u = frontier[head];
    for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
      const graph::NodeId t = targets_[e];
      if (ws->stamps_[t] != epoch && !blocked(t)) {
        ws->stamps_[t] = epoch;
        frontier.push_back(t);
      }
    }
  }
  return frontier.size();
}

double SnapshotSpreadOracle::MarginalGain(graph::NodeId v,
                                          Workspace* ws) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  uint64_t count = 0;
  ReachCounts(v, v + 1, ws, &count);
  return GainOfCount(count);
}

void SnapshotSpreadOracle::ReachCounts(graph::NodeId begin, graph::NodeId end,
                                       Workspace* ws, uint64_t* counts) const {
  INFLEX_CHECK_LE(begin, end);
  INFLEX_CHECK_LE(end, num_nodes_);
  INFLEX_CHECK_EQ(ws->stamps_.size(), num_nodes_);
  std::fill(counts, counts + (end - begin), uint64_t{0});
  for (size_t s = 0; s < num_snapshots_; ++s) {
    for (graph::NodeId v = begin; v < end; ++v) {
      counts[v - begin] += CountReach<false>(s, v, ws);
    }
  }
}

void SnapshotSpreadOracle::ExclusiveReachCounts(graph::NodeId other,
                                                graph::NodeId begin,
                                                graph::NodeId end,
                                                Workspace* ws,
                                                uint64_t* counts) const {
  INFLEX_CHECK_LT(other, num_nodes_);
  INFLEX_CHECK_LE(begin, end);
  INFLEX_CHECK_LE(end, num_nodes_);
  INFLEX_CHECK_EQ(ws->stamps_.size(), num_nodes_);
  std::fill(counts, counts + (end - begin), uint64_t{0});
  for (size_t s = 0; s < num_snapshots_; ++s) {
    MarkReach(s, other, ws);
    for (graph::NodeId v = begin; v < end; ++v) {
      counts[v - begin] += CountReach<true>(s, v, ws);
    }
  }
}

void SnapshotSpreadOracle::MarginalGainPair(graph::NodeId v,
                                            graph::NodeId other, Workspace* ws,
                                            double* mg1, double* mg2) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  INFLEX_CHECK_LT(other, num_nodes_);
  INFLEX_CHECK_EQ(ws->stamps_.size(), num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain1 = 0, gain2 = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const uint8_t* cov = covered_.data() + s * n;
    const uint64_t* off = offsets_.data() + s * (n + 1);

    // Pass 1: mark `other`'s incremental reach in this snapshot.
    MarkReach(s, other, ws);
    const uint32_t xepoch = ws->extra_epoch_;

    // Pass 2: BFS from v over uncovered nodes, counting both totals.
    if (cov[v]) continue;
    const uint32_t epoch = NextEpoch(&ws->epoch_, &ws->stamps_);
    frontier.clear();
    frontier.push_back(v);
    ws->stamps_[v] = epoch;
    ++gain1;
    if (ws->extra_stamps_[v] != xepoch) ++gain2;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (ws->stamps_[t] != epoch && !cov[t]) {
          ws->stamps_[t] = epoch;
          frontier.push_back(t);
          ++gain1;
          if (ws->extra_stamps_[t] != xepoch) ++gain2;
        }
      }
    }
  }
  *mg1 = GainOfCount(gain1);
  *mg2 = GainOfCount(gain2);
}

double SnapshotSpreadOracle::CommitSeed(graph::NodeId v, Workspace* ws) {
  INFLEX_CHECK_LT(v, num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    uint8_t* cov = covered_.data() + s * n;
    if (cov[v]) continue;
    const uint64_t* off = offsets_.data() + s * (n + 1);
    frontier.clear();
    frontier.push_back(v);
    cov[v] = 1;
    ++gain;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (!cov[t]) {
          cov[t] = 1;
          frontier.push_back(t);
          ++gain;
        }
      }
    }
  }
  total_covered_ += gain;
  return static_cast<double>(gain) / static_cast<double>(num_snapshots_);
}

void SnapshotSpreadOracle::ResetSeeds() {
  std::fill(covered_.begin(), covered_.end(), 0u);
  total_covered_ = 0;
}

double SnapshotSpreadOracle::SpreadOf(std::span<const graph::NodeId> seeds,
                                      Workspace* ws) const {
  INFLEX_CHECK_EQ(ws->stamps_.size(), num_nodes_);
  const size_t n = num_nodes_;
  uint64_t total = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const uint32_t epoch = NextEpoch(&ws->epoch_, &ws->stamps_);
    const uint64_t* off = offsets_.data() + s * (n + 1);
    frontier.clear();
    for (graph::NodeId seed : seeds) {
      INFLEX_CHECK_LT(seed, num_nodes_);
      if (ws->stamps_[seed] != epoch) {
        ws->stamps_[seed] = epoch;
        frontier.push_back(seed);
        ++total;
      }
    }
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (ws->stamps_[t] != epoch) {
          ws->stamps_[t] = epoch;
          frontier.push_back(t);
          ++total;
        }
      }
    }
  }
  return static_cast<double>(total) / static_cast<double>(num_snapshots_);
}

}  // namespace im
}  // namespace inflex
