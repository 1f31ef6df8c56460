#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>
#include <string>

#include "graph/topic_graph.h"
#include "im/cascade.h"
#include "im/celf.h"
#include "im/celfpp.h"
#include "im/greedy.h"
#include "im/heuristics.h"
#include "im/snapshot_oracle.h"
#include "im/spread_estimator.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace inflex {
namespace im {
namespace {

using graph::ArcProbabilities;
using graph::NodeId;
using graph::TopicGraph;
using graph::TopicGraphBuilder;

// Path 0→1→2→3 with Z = 1; the single topic prob equals the IC prob.
TopicGraph MakePathGraph(const std::vector<double>& probs) {
  TopicGraphBuilder b(probs.size() + 1, 1);
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_TRUE(b.AddArc(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                         {probs[i]})
                    .ok());
  }
  return b.Build().ValueOrDie();
}

// Random sparse digraph for property tests.
TopicGraph MakeRandomGraph(size_t n, size_t arcs, double p_lo, double p_hi,
                           uint64_t seed) {
  Rng rng(seed);
  TopicGraphBuilder b(n, 1);
  std::set<std::pair<NodeId, NodeId>> used;
  size_t added = 0;
  while (added < arcs) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v || used.count({u, v})) continue;
    used.insert({u, v});
    EXPECT_TRUE(b.AddArc(u, v, {rng.Uniform(p_lo, p_hi)}).ok());
    ++added;
  }
  return b.Build().ValueOrDie();
}

ArcProbabilities SingleTopicProbs(const TopicGraph& g) {
  ArcProbabilities p(g.num_arcs());
  for (graph::ArcId a = 0; a < g.num_arcs(); ++a) p[a] = g.ArcTopicProb(a, 0);
  return p;
}

// ----------------------------------------------------------------- cascade ---

TEST(CascadeTest, DeterministicAllOnesPath) {
  const TopicGraph g = MakePathGraph({1.0, 1.0, 1.0});
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(1);
  CascadeWorkspace ws(g.num_nodes());
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(SimulateCascadeCount(g, p, seeds, &rng, &ws), 4u);
}

TEST(CascadeTest, ZeroProbabilitiesOnlySeedActive) {
  TopicGraphBuilder b(4, 1);
  ASSERT_TRUE(b.AddArc(0, 1, {0.0}).ok());
  ASSERT_TRUE(b.AddArc(1, 2, {0.0}).ok());
  const TopicGraph g = b.Build().ValueOrDie();
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(2);
  CascadeWorkspace ws(g.num_nodes());
  const std::vector<NodeId> seeds = {0};
  for (int t = 0; t < 20; ++t) {
    EXPECT_EQ(SimulateCascadeCount(g, p, seeds, &rng, &ws), 1u);
  }
}

TEST(CascadeTest, DuplicateSeedsCountedOnce) {
  const TopicGraph g = MakePathGraph({1.0});
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(3);
  CascadeWorkspace ws(g.num_nodes());
  const std::vector<NodeId> seeds = {0, 0, 1};
  EXPECT_EQ(SimulateCascadeCount(g, p, seeds, &rng, &ws), 2u);
}

TEST(CascadeTest, NodesVariantRecordsActivationOrder) {
  const TopicGraph g = MakePathGraph({1.0, 1.0});
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(4);
  CascadeWorkspace ws(g.num_nodes());
  std::vector<NodeId> activated;
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(SimulateCascadeNodes(g, p, seeds, &rng, &ws, &activated), 3u);
  ASSERT_EQ(activated.size(), 3u);
  EXPECT_EQ(activated[0], 0u);  // seed first, then BFS order
  EXPECT_EQ(activated[1], 1u);
  EXPECT_EQ(activated[2], 2u);
}

// -------------------------------------------------------- spread estimator ---

TEST(SpreadEstimatorTest, ClosedFormSingleArc) {
  // σ({0}) on 0→1 with prob p is 1 + p.
  const double p_arc = 0.37;
  const TopicGraph g = MakePathGraph({p_arc});
  const ArcProbabilities p = SingleTopicProbs(g);
  MonteCarloOptions opts;
  opts.num_simulations = 200000;
  const std::vector<NodeId> seeds = {0};
  auto est = EstimateSpread(g, p, seeds, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.ValueOrDie().mean, 1.0 + p_arc, 0.01);
  EXPECT_GT(est.ValueOrDie().std_error, 0.0);
}

TEST(SpreadEstimatorTest, ClosedFormTwoHopPath) {
  // σ({0}) on 0→1→2 with probs p, q is 1 + p + p·q.
  const TopicGraph g = MakePathGraph({0.5, 0.4});
  const ArcProbabilities p = SingleTopicProbs(g);
  MonteCarloOptions opts;
  opts.num_simulations = 200000;
  const std::vector<NodeId> seeds = {0};
  auto est = EstimateSpread(g, p, seeds, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.ValueOrDie().mean, 1.0 + 0.5 + 0.2, 0.01);
}

TEST(SpreadEstimatorTest, EmptySeedsGiveZero) {
  const TopicGraph g = MakePathGraph({0.5});
  auto est = EstimateSpread(g, SingleTopicProbs(g), {});
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est.ValueOrDie().mean, 0.0);
}

TEST(SpreadEstimatorTest, ParallelMatchesSerial) {
  const TopicGraph g = MakeRandomGraph(100, 500, 0.05, 0.3, 5);
  const ArcProbabilities p = SingleTopicProbs(g);
  const std::vector<NodeId> seeds = {3, 17, 42};
  MonteCarloOptions serial;
  serial.num_simulations = 2000;
  serial.parallel = false;
  MonteCarloOptions parallel = serial;
  parallel.parallel = true;
  auto a = EstimateSpread(g, p, seeds, serial);
  auto b = EstimateSpread(g, p, seeds, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical per-simulation RNG streams ⇒ identical estimates.
  EXPECT_DOUBLE_EQ(a.ValueOrDie().mean, b.ValueOrDie().mean);
}

TEST(SpreadEstimatorTest, ValidatesInput) {
  const TopicGraph g = MakePathGraph({0.5});
  const std::vector<NodeId> bad_seed = {99};
  EXPECT_FALSE(EstimateSpread(g, SingleTopicProbs(g), bad_seed).ok());
  ArcProbabilities wrong(5, 0.1);
  const std::vector<NodeId> seeds = {0};
  EXPECT_FALSE(EstimateSpread(g, wrong, seeds).ok());
}

// --------------------------------------------------------- snapshot oracle ---

TEST(SnapshotOracleTest, DeterministicGraphExactSpread) {
  const TopicGraph g = MakePathGraph({1.0, 1.0, 1.0});
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 10;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();
  EXPECT_DOUBLE_EQ(o.MarginalGain(0, &ws), 4.0);
  EXPECT_DOUBLE_EQ(o.MarginalGain(2, &ws), 2.0);
  o.CommitSeed(2, &ws);
  // After committing 2, node 0 only adds {0, 1}.
  EXPECT_DOUBLE_EQ(o.MarginalGain(0, &ws), 2.0);
  EXPECT_DOUBLE_EQ(o.CurrentSpread(), 2.0);
}

TEST(SnapshotOracleTest, MarginalGainMatchesSpreadDifference) {
  const TopicGraph g = MakeRandomGraph(80, 400, 0.1, 0.5, 7);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 50;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();

  std::vector<NodeId> committed;
  Rng rng(8);
  for (int step = 0; step < 5; ++step) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(80));
    const double before = o.SpreadOf(committed, &ws);
    std::vector<NodeId> extended = committed;
    extended.push_back(v);
    const double after = o.SpreadOf(extended, &ws);
    EXPECT_NEAR(o.MarginalGain(v, &ws), after - before, 1e-9);
    o.CommitSeed(v, &ws);
    committed.push_back(v);
    EXPECT_NEAR(o.CurrentSpread(), after, 1e-9);
  }
}

TEST(SnapshotOracleTest, MarginalGainPairConsistent) {
  const TopicGraph g = MakeRandomGraph(60, 300, 0.1, 0.5, 9);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 40;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();

  Rng rng(10);
  for (int t = 0; t < 20; ++t) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(60));
    const NodeId other = static_cast<NodeId>(rng.UniformInt(60));
    if (v == other) continue;
    double mg1 = 0, mg2 = 0;
    o.MarginalGainPair(v, other, &ws, &mg1, &mg2);
    // mg1 must equal the plain marginal gain.
    EXPECT_NEAR(mg1, o.MarginalGain(v, &ws), 1e-9);
    // mg2 = σ(S∪{other,v}) − σ(S∪{other}).
    const std::vector<NodeId> base = {other};
    const std::vector<NodeId> both = {other, v};
    EXPECT_NEAR(mg2, o.SpreadOf(both, &ws) - o.SpreadOf(base, &ws), 1e-9);
    // Submodularity of the pair: mg2 ≤ mg1.
    EXPECT_LE(mg2, mg1 + 1e-9);
  }
}

TEST(SnapshotOracleTest, SubmodularityProperty) {
  // Gains never increase as the committed seed set grows — the property
  // CELF's lazy evaluation depends on.
  const TopicGraph g = MakeRandomGraph(70, 350, 0.1, 0.4, 11);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 30;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();

  std::vector<double> gains_before(70), gains_after(70);
  for (NodeId v = 0; v < 70; ++v) gains_before[v] = o.MarginalGain(v, &ws);
  o.CommitSeed(5, &ws);
  o.CommitSeed(50, &ws);
  for (NodeId v = 0; v < 70; ++v) gains_after[v] = o.MarginalGain(v, &ws);
  for (NodeId v = 0; v < 70; ++v) {
    EXPECT_LE(gains_after[v], gains_before[v] + 1e-9) << "node " << v;
  }
}

TEST(SnapshotOracleTest, SpreadApproximatesMonteCarlo) {
  const TopicGraph g = MakeRandomGraph(100, 600, 0.05, 0.3, 13);
  const ArcProbabilities p = SingleTopicProbs(g);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 3000;
  auto oracle = SnapshotSpreadOracle::Create(g, p, opts);
  ASSERT_TRUE(oracle.ok());
  auto ws = oracle.ValueOrDie().MakeWorkspace();
  const std::vector<NodeId> seeds = {1, 20, 60};
  const double snapshot_spread = oracle.ValueOrDie().SpreadOf(seeds, &ws);
  MonteCarloOptions mc;
  mc.num_simulations = 30000;
  auto est = EstimateSpread(g, p, seeds, mc);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(snapshot_spread, est.ValueOrDie().mean,
              0.05 * est.ValueOrDie().mean + 0.5);
}

TEST(SnapshotOracleTest, ResetSeedsRestoresGains) {
  const TopicGraph g = MakeRandomGraph(50, 250, 0.1, 0.5, 15);
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();
  const double g0 = o.MarginalGain(7, &ws);
  o.CommitSeed(7, &ws);
  EXPECT_NEAR(o.MarginalGain(7, &ws), 0.0, 1e-12);
  o.ResetSeeds();
  EXPECT_DOUBLE_EQ(o.MarginalGain(7, &ws), g0);
  EXPECT_DOUBLE_EQ(o.CurrentSpread(), 0.0);
}

// ---------------------------------------------------- greedy / CELF / CELF++ ---

class SeedSelectorAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSelectorAgreementTest, AllThreeAlgorithmsAgree) {
  const TopicGraph g = MakeRandomGraph(120, 700, 0.05, 0.4, GetParam());
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 60;
  opts.seed = GetParam() * 3 + 1;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();

  SeedSelectionOptions sopts;
  sopts.parallel_first_iteration = false;
  const size_t k = 8;
  auto greedy = SelectSeedsGreedy(&o, k, sopts);
  auto celf = SelectSeedsCelf(&o, k, sopts);
  auto celfpp = SelectSeedsCelfPp(&o, k, sopts);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(celf.ok());
  ASSERT_TRUE(celfpp.ok());

  // Same oracle ⇒ identical greedy sequences (ties broken identically) and
  // identical final spreads.
  EXPECT_EQ(celf.ValueOrDie().seeds, greedy.ValueOrDie().seeds);
  EXPECT_EQ(celfpp.ValueOrDie().seeds, greedy.ValueOrDie().seeds);
  EXPECT_NEAR(celf.ValueOrDie().expected_spread,
              greedy.ValueOrDie().expected_spread, 1e-9);

  // Lazy evaluation must not do MORE work than plain greedy, and CELF++
  // should not do more than CELF (its whole point).
  EXPECT_LE(celf.ValueOrDie().num_evaluations,
            greedy.ValueOrDie().num_evaluations);
  EXPECT_LE(celfpp.ValueOrDie().num_evaluations,
            celf.ValueOrDie().num_evaluations * 2);  // counts pair evals
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSelectorAgreementTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(SeedSelectorTest, MarginalGainsNonIncreasing) {
  const TopicGraph g = MakeRandomGraph(100, 500, 0.1, 0.4, 17);
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  SeedSelectionOptions sopts;
  sopts.parallel_first_iteration = false;
  auto r = SelectSeedsCelfPp(&oracle.ValueOrDie(), 10, sopts);
  ASSERT_TRUE(r.ok());
  const auto& gains = r.ValueOrDie().marginal_gains;
  for (size_t i = 1; i < gains.size(); ++i) {
    EXPECT_LE(gains[i], gains[i - 1] + 1e-9) << i;
  }
  // Spread equals the sum of marginal gains.
  double total = 0.0;
  for (double gn : gains) total += gn;
  EXPECT_NEAR(total, r.ValueOrDie().expected_spread, 1e-9);
}

TEST(SeedSelectorTest, SeedsAreDistinct) {
  const TopicGraph g = MakeRandomGraph(60, 300, 0.1, 0.5, 19);
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto r = SelectSeedsCelfPp(&oracle.ValueOrDie(), 20, {});
  ASSERT_TRUE(r.ok());
  std::set<NodeId> unique(r.ValueOrDie().seeds.begin(),
                          r.ValueOrDie().seeds.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(SeedSelectorTest, RejectsBadK) {
  const TopicGraph g = MakePathGraph({0.5});
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(SelectSeedsGreedy(&oracle.ValueOrDie(), 0, {}).ok());
  EXPECT_FALSE(SelectSeedsCelf(&oracle.ValueOrDie(), 99, {}).ok());
  EXPECT_FALSE(SelectSeedsCelfPp(&oracle.ValueOrDie(), 99, {}).ok());
}

TEST(SeedSelectorTest, ParallelFirstIterationMatchesSerial) {
  const TopicGraph g = MakeRandomGraph(400, 2000, 0.05, 0.3, 23);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 40;
  auto o1 = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  auto o2 = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  SeedSelectionOptions serial;
  serial.parallel_first_iteration = false;
  SeedSelectionOptions parallel;
  parallel.parallel_first_iteration = true;
  auto a = SelectSeedsCelfPp(&o1.ValueOrDie(), 5, serial);
  auto b = SelectSeedsCelfPp(&o2.ValueOrDie(), 5, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().seeds, b.ValueOrDie().seeds);
}

// ------------------------------------- first iteration vs per-node reference ---

// The per-node first iteration the selectors ran before the batch calls,
// kept as the reference. MarginalGainPair's mg1 is its own BFS, independent
// of the batch code that MarginalGain now shares, so PerNodeGain is too.
double PerNodeGain(const SnapshotSpreadOracle& o, NodeId v,
                   SnapshotSpreadOracle::Workspace* ws) {
  double mg1 = 0.0, mg2 = 0.0;
  o.MarginalGainPair(v, v, ws, &mg1, &mg2);
  return mg1;
}

struct RefHeapEntry {
  double gain;
  NodeId node;
  uint32_t flag;

  bool operator<(const RefHeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;
  }
};

constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

SeedSelectionResult ReferenceGreedy(SnapshotSpreadOracle* oracle, size_t k,
                                    const SeedSelectionOptions& options) {
  const size_t n = oracle->num_nodes();
  oracle->ResetSeeds();
  SeedSelectionResult result;
  std::vector<double> gains(n);
  std::vector<uint8_t> selected(n, 0);
  auto ws = oracle->MakeWorkspace();
  const bool parallel = options.parallel_first_iteration && n >= 256;
  for (size_t iter = 0; iter < k; ++iter) {
    for (size_t v = 0; v < n; ++v) {
      const bool evaluate = (iter == 0 && parallel) ||
                            (!selected[v] && IsCandidate(options, v));
      if (!evaluate) continue;
      gains[v] = iter == 0 ? PerNodeGain(*oracle, static_cast<NodeId>(v), &ws)
                           : oracle->MarginalGain(static_cast<NodeId>(v), &ws);
      ++result.num_evaluations;
    }
    double best_gain = -std::numeric_limits<double>::infinity();
    size_t best_v = n;
    for (size_t v = 0; v < n; ++v) {
      if (selected[v] || !IsCandidate(options, v)) continue;
      if (gains[v] > best_gain) {
        best_gain = gains[v];
        best_v = v;
      }
    }
    selected[best_v] = 1;
    oracle->CommitSeed(static_cast<NodeId>(best_v), &ws);
    result.seeds.push_back(static_cast<NodeId>(best_v));
    result.marginal_gains.push_back(best_gain);
  }
  result.expected_spread = oracle->CurrentSpread();
  return result;
}

SeedSelectionResult ReferenceCelf(SnapshotSpreadOracle* oracle, size_t k,
                                  const SeedSelectionOptions& options) {
  const size_t n = oracle->num_nodes();
  oracle->ResetSeeds();
  SeedSelectionResult result;
  auto ws = oracle->MakeWorkspace();
  std::priority_queue<RefHeapEntry> heap;
  for (size_t v = 0; v < n; ++v) {
    const double gain = PerNodeGain(*oracle, static_cast<NodeId>(v), &ws);
    if (IsCandidate(options, v)) heap.push({gain, static_cast<NodeId>(v), 0});
  }
  result.num_evaluations += n;
  while (result.seeds.size() < k) {
    RefHeapEntry top = heap.top();
    heap.pop();
    const uint32_t cur_size = static_cast<uint32_t>(result.seeds.size());
    if (top.flag == cur_size) {
      oracle->CommitSeed(top.node, &ws);
      result.seeds.push_back(top.node);
      result.marginal_gains.push_back(top.gain);
    } else {
      top.gain = oracle->MarginalGain(top.node, &ws);
      top.flag = cur_size;
      ++result.num_evaluations;
      heap.push(top);
    }
  }
  result.expected_spread = oracle->CurrentSpread();
  return result;
}

SeedSelectionResult ReferenceCelfPp(SnapshotSpreadOracle* oracle, size_t k,
                                    const SeedSelectionOptions& options) {
  const size_t n = oracle->num_nodes();
  oracle->ResetSeeds();
  SeedSelectionResult result;
  auto ws = oracle->MakeWorkspace();
  std::vector<double> mg1(n), mg2(n);
  std::vector<NodeId> prev_best(n, kNoNode);
  std::vector<uint32_t> flag(n, 0);
  for (size_t v = 0; v < n; ++v) {
    mg1[v] = PerNodeGain(*oracle, static_cast<NodeId>(v), &ws);
  }
  result.num_evaluations += n;
  NodeId best0 = kNoNode;
  for (size_t v = 0; v < n; ++v) {
    if (!IsCandidate(options, v)) continue;
    if (best0 == kNoNode || mg1[v] > mg1[best0]) best0 = static_cast<NodeId>(v);
  }
  for (size_t v = 0; v < n; ++v) {
    if (v == best0) {
      mg2[v] = mg1[v];
      continue;
    }
    oracle->MarginalGainPair(static_cast<NodeId>(v), best0, &ws, &mg1[v],
                             &mg2[v]);
    prev_best[v] = best0;
  }
  std::priority_queue<RefHeapEntry> heap;
  for (size_t v = 0; v < n; ++v) {
    if (IsCandidate(options, v)) heap.push({mg1[v], static_cast<NodeId>(v), 0});
  }
  std::vector<uint8_t> seeded(n, 0);
  NodeId last_seed = kNoNode, cur_best = kNoNode;
  double cur_best_gain = -1.0;
  while (result.seeds.size() < k && !heap.empty()) {
    const RefHeapEntry top = heap.top();
    heap.pop();
    const NodeId u = top.node;
    if (seeded[u] || top.gain != mg1[u]) continue;
    const uint32_t cur_size = static_cast<uint32_t>(result.seeds.size());
    if (flag[u] == cur_size) {
      oracle->CommitSeed(u, &ws);
      result.seeds.push_back(u);
      result.marginal_gains.push_back(mg1[u]);
      seeded[u] = 1;
      last_seed = u;
      cur_best = kNoNode;
      cur_best_gain = -1.0;
      continue;
    }
    if (prev_best[u] == last_seed && flag[u] + 1 == cur_size &&
        last_seed != kNoNode) {
      mg1[u] = mg2[u];
      prev_best[u] = kNoNode;
    } else if (cur_best != kNoNode && cur_best != u) {
      oracle->MarginalGainPair(u, cur_best, &ws, &mg1[u], &mg2[u]);
      prev_best[u] = cur_best;
      ++result.num_evaluations;
    } else {
      mg1[u] = oracle->MarginalGain(u, &ws);
      mg2[u] = mg1[u];
      prev_best[u] = kNoNode;
      ++result.num_evaluations;
    }
    flag[u] = cur_size;
    if (mg1[u] > cur_best_gain) {
      cur_best_gain = mg1[u];
      cur_best = u;
    }
    heap.push({mg1[u], u, 0});
  }
  result.expected_spread = oracle->CurrentSpread();
  return result;
}

void ExpectSameResult(const SeedSelectionResult& got,
                      const SeedSelectionResult& want, const std::string& what) {
  EXPECT_EQ(got.seeds, want.seeds) << what;
  EXPECT_EQ(got.marginal_gains, want.marginal_gains) << what;
  EXPECT_EQ(got.num_evaluations, want.num_evaluations) << what;
  EXPECT_EQ(got.expected_spread, want.expected_spread) << what;
}

SnapshotSpreadOracle MakeOracle(const TopicGraph& g, size_t snapshots,
                                uint64_t seed) {
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = snapshots;
  opts.seed = seed;
  return SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts)
      .ValueOrDie();
}

// Σ_s |R_s(seeds)|, from SpreadOf's own multi-source BFS: it ignores the
// committed seeds and shares no code with the batch passes.
uint64_t TotalReach(const SnapshotSpreadOracle& o,
                    const std::vector<NodeId>& seeds,
                    SnapshotSpreadOracle::Workspace* ws) {
  return static_cast<uint64_t>(std::llround(
      o.SpreadOf(seeds, ws) * static_cast<double>(o.num_snapshots())));
}

// Batch counts equal the per-node gains on every node and on any split of
// the range into chunks, with and without committed seeds (covered nodes).
TEST(BatchGainTest, CountsMatchPerNodeGains) {
  for (const size_t n : {70, 300}) {
    for (const uint64_t seed : {1, 2, 3}) {
      const TopicGraph g = MakeRandomGraph(n, n * 5, 0.05, 0.4, seed * 17 + n);
      SnapshotSpreadOracle o = MakeOracle(g, 25, seed);
      auto ws = o.MakeWorkspace();
      Rng rng(seed);
      std::vector<NodeId> committed_seeds;
      for (int committed = 0; committed <= 2; ++committed) {
        if (committed > 0) {
          committed_seeds.push_back(static_cast<NodeId>(rng.UniformInt(n)));
          o.CommitSeed(committed_seeds.back(), &ws);
        }
        // A covered node, an uncovered one and a random one as `other`.
        std::vector<NodeId> others = {static_cast<NodeId>(rng.UniformInt(n))};
        for (NodeId v = 0; v < n; ++v) {
          if (PerNodeGain(o, v, &ws) == 0.0) {
            others.push_back(v);
            break;
          }
        }
        for (NodeId v = 0; v < n; ++v) {
          if (PerNodeGain(o, v, &ws) > 1.0) {
            others.push_back(v);
            break;
          }
        }

        // Random chunk boundaries, including empty and one-node chunks.
        std::vector<size_t> cuts = {0, n};
        for (int c = 0; c < 5; ++c) cuts.push_back(rng.UniformInt(n + 1));
        cuts.push_back(cuts[2]);
        std::sort(cuts.begin(), cuts.end());

        std::vector<uint64_t> counts(n);
        for (size_t c = 0; c + 1 < cuts.size(); ++c) {
          auto chunk_ws = o.MakeWorkspace();
          o.ReachCounts(static_cast<NodeId>(cuts[c]),
                        static_cast<NodeId>(cuts[c + 1]), &chunk_ws,
                        counts.data() + cuts[c]);
        }
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(o.GainOfCount(counts[v]), PerNodeGain(o, v, &ws))
              << "n=" << n << " node " << v << " committed=" << committed;
          ASSERT_EQ(o.MarginalGain(v, &ws), PerNodeGain(o, v, &ws));
        }

        // The covered nodes are R_s(C) for the committed seeds C, which is
        // closed under reachability, so |R_s(v) \ R_s(other)| over the
        // uncovered nodes is |R_s(C + other + v)| - |R_s(C + other)|.
        for (const NodeId other : others) {
          for (size_t c = 0; c + 1 < cuts.size(); ++c) {
            o.ExclusiveReachCounts(other, static_cast<NodeId>(cuts[c]),
                                   static_cast<NodeId>(cuts[c + 1]), &ws,
                                   counts.data() + cuts[c]);
          }
          std::vector<NodeId> with_other = committed_seeds;
          with_other.push_back(other);
          const uint64_t base = TotalReach(o, with_other, &ws);
          with_other.push_back(0);
          for (NodeId v = 0; v < n; ++v) {
            with_other.back() = v;
            const uint64_t want = TotalReach(o, with_other, &ws) - base;
            ASSERT_EQ(counts[v], want)
                << "n=" << n << " node " << v << " other " << other
                << " committed=" << committed;
            // The reference CELF++ below takes its mg2 from MarginalGainPair.
            double mg1 = 0.0, mg2 = 0.0;
            o.MarginalGainPair(v, other, &ws, &mg1, &mg2);
            ASSERT_EQ(mg2, o.GainOfCount(want));
          }
        }
      }
    }
  }
}

// Greedy, CELF and CELF++ return exactly what the per-node first iteration
// returned: seeds, gains, evaluation counts and spread, for graphs below and
// above the parallel threshold, candidate masks on and off, serial and on
// pools of 1, 2 and 4 workers.
TEST(BatchGainTest, SelectorsMatchPerNodeReference) {
  ThreadPool pool1(1), pool2(2), pool4(4);
  for (const size_t n : {120, 400}) {
    const TopicGraph g = MakeRandomGraph(n, n * 5, 0.05, 0.35, 1000 + n);
    SnapshotSpreadOracle o = MakeOracle(g, 30, n);
    for (const bool masked : {false, true}) {
      SeedSelectionOptions base;
      if (masked) {
        Rng rng(n);
        base.candidate_mask.assign(n, 0);
        for (size_t v = 0; v < n; ++v) base.candidate_mask[v] = rng.Bernoulli(0.4);
      }
      const size_t k = 10;
      for (ThreadPool* pool : {&pool1, &pool2, &pool4}) {
        for (const bool parallel : {false, true}) {
          SeedSelectionOptions opts = base;
          opts.parallel_first_iteration = parallel;
          opts.pool = pool;
          const std::string what =
              "n=" + std::to_string(n) + " masked=" + std::to_string(masked) +
              " pool=" + std::to_string(pool->num_threads()) +
              " parallel=" + std::to_string(parallel);
          ExpectSameResult(SelectSeedsCelfPp(&o, k, opts).ValueOrDie(),
                           ReferenceCelfPp(&o, k, opts), "CELF++ " + what);
          ExpectSameResult(SelectSeedsCelf(&o, k, opts).ValueOrDie(),
                           ReferenceCelf(&o, k, opts), "CELF " + what);
          ExpectSameResult(SelectSeedsGreedy(&o, k, opts).ValueOrDie(),
                           ReferenceGreedy(&o, k, opts), "greedy " + what);
        }
      }
    }
  }
}

// Regression: the parallel first iteration once kept a thread-local
// workspace sized for the first oracle a worker saw, so a larger graph on
// the same workers wrote past its stamp buffers. Two graph sizes on one
// two-worker pool must give the serial answers (and run clean under ASan).
TEST(BatchGainTest, WorkersSeeSmallThenLargeGraph) {
  ThreadPool pool(2);
  for (const size_t n : {260, 1500}) {
    const TopicGraph g = MakeRandomGraph(n, n * 4, 0.05, 0.3, n);
    SnapshotSpreadOracle o = MakeOracle(g, 20, 5);
    SeedSelectionOptions parallel;
    parallel.pool = &pool;
    SeedSelectionOptions serial;
    serial.parallel_first_iteration = false;
    ExpectSameResult(SelectSeedsCelfPp(&o, 5, parallel).ValueOrDie(),
                     SelectSeedsCelfPp(&o, 5, serial).ValueOrDie(), "CELF++");
    ExpectSameResult(SelectSeedsCelf(&o, 5, parallel).ValueOrDie(),
                     SelectSeedsCelf(&o, 5, serial).ValueOrDie(), "CELF");
    const auto greedy = SelectSeedsGreedy(&o, 5, parallel).ValueOrDie();
    EXPECT_EQ(greedy.seeds,
              SelectSeedsGreedy(&o, 5, serial).ValueOrDie().seeds);
  }
}

// ---------------------------------------------------------------- heuristics ---

TEST(HeuristicsTest, RandomSeedsDistinctAndInRange) {
  Rng rng(29);
  auto r = SelectSeedsRandom(50, 10, &rng);
  ASSERT_TRUE(r.ok());
  std::set<NodeId> unique(r.ValueOrDie().begin(), r.ValueOrDie().end());
  EXPECT_EQ(unique.size(), 10u);
  for (NodeId v : r.ValueOrDie()) EXPECT_LT(v, 50u);
  EXPECT_FALSE(SelectSeedsRandom(5, 6, &rng).ok());
  EXPECT_FALSE(SelectSeedsRandom(5, 0, &rng).ok());
}

TEST(HeuristicsTest, DegreeSeedsAreTopDegree) {
  TopicGraphBuilder b(5, 1);
  // Node 2 has out-degree 3; node 0 has 2; others less.
  ASSERT_TRUE(b.AddArc(2, 0, {0.5}).ok());
  ASSERT_TRUE(b.AddArc(2, 1, {0.5}).ok());
  ASSERT_TRUE(b.AddArc(2, 3, {0.5}).ok());
  ASSERT_TRUE(b.AddArc(0, 1, {0.5}).ok());
  ASSERT_TRUE(b.AddArc(0, 3, {0.5}).ok());
  ASSERT_TRUE(b.AddArc(4, 3, {0.5}).ok());
  const TopicGraph g = b.Build().ValueOrDie();
  auto r = SelectSeedsByDegree(g, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie()[0], 2u);
  EXPECT_EQ(r.ValueOrDie()[1], 0u);
}

TEST(HeuristicsTest, WeightedDegreeUsesProbabilities) {
  TopicGraphBuilder b(4, 1);
  ASSERT_TRUE(b.AddArc(0, 1, {0.9}).ok());   // node 0: weight 0.9
  ASSERT_TRUE(b.AddArc(1, 2, {0.1}).ok());   // node 1: weight 0.3 total
  ASSERT_TRUE(b.AddArc(1, 3, {0.2}).ok());
  const TopicGraph g = b.Build().ValueOrDie();
  auto r = SelectSeedsByWeightedDegree(g, SingleTopicProbs(g), 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie()[0], 0u);
}

}  // namespace
}  // namespace im
}  // namespace inflex
