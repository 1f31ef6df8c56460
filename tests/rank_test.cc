#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "rank/aggregators.h"
#include "rank/kemeny.h"
#include "rank/kendall_tau.h"
#include "rank/local_kemenization.h"
#include "rank/preference_matrix.h"
#include "rank/ranked_list.h"
#include "util/random.h"

namespace inflex {
namespace rank {
namespace {

// -------------------------------------------------------------- validation ---

TEST(RankedListTest, ValidateDetectsDuplicates) {
  EXPECT_TRUE(ValidateRankedList({1, 2, 3}).ok());
  EXPECT_FALSE(ValidateRankedList({1, 2, 1}).ok());
  EXPECT_TRUE(ValidateRankedList({}).ok());
}

TEST(RankedListTest, UnionPreservesFirstAppearanceOrder) {
  const RankedList u = UnionOfLists({{3, 1, 2}, {2, 4}, {5}});
  EXPECT_EQ(u, (RankedList{3, 1, 2, 4, 5}));
}

// ------------------------------------------------------------ Kendall full ---

TEST(KendallTauFullTest, IdenticalListsZero) {
  EXPECT_DOUBLE_EQ(KendallTauFull({1, 2, 3, 4}, {1, 2, 3, 4}).ValueOrDie(),
                   0.0);
}

TEST(KendallTauFullTest, ReversedListsOne) {
  EXPECT_DOUBLE_EQ(KendallTauFull({1, 2, 3, 4}, {4, 3, 2, 1}).ValueOrDie(),
                   1.0);
}

TEST(KendallTauFullTest, SingleSwap) {
  // One adjacent transposition = 1 discordant pair out of C(4,2)=6.
  EXPECT_DOUBLE_EQ(KendallTauFull({1, 2, 3, 4}, {2, 1, 3, 4}).ValueOrDie(),
                   1.0 / 6.0);
}

TEST(KendallTauFullTest, UnnormalizedCountsInversions) {
  EXPECT_DOUBLE_EQ(
      KendallTauFull({1, 2, 3}, {3, 2, 1}, /*normalized=*/false).ValueOrDie(),
      3.0);
}

TEST(KendallTauFullTest, SymmetricInArguments) {
  Rng rng(3);
  RankedList a(20), b(20);
  std::iota(a.begin(), a.end(), 0u);
  b = a;
  rng.Shuffle(&a);
  rng.Shuffle(&b);
  EXPECT_DOUBLE_EQ(KendallTauFull(a, b).ValueOrDie(),
                   KendallTauFull(b, a).ValueOrDie());
}

TEST(KendallTauFullTest, MatchesBruteForceOnRandomPermutations) {
  Rng rng(5);
  for (int t = 0; t < 30; ++t) {
    RankedList a(12), b(12);
    std::iota(a.begin(), a.end(), 0u);
    b = a;
    rng.Shuffle(&a);
    rng.Shuffle(&b);
    // Brute force discordant pair count.
    std::vector<size_t> pos_a(12), pos_b(12);
    for (size_t i = 0; i < 12; ++i) {
      pos_a[a[i]] = i;
      pos_b[b[i]] = i;
    }
    double brute = 0;
    for (Item i = 0; i < 12; ++i) {
      for (Item j = i + 1; j < 12; ++j) {
        if ((pos_a[i] < pos_a[j]) != (pos_b[i] < pos_b[j])) brute += 1.0;
      }
    }
    EXPECT_DOUBLE_EQ(
        KendallTauFull(a, b, /*normalized=*/false).ValueOrDie(), brute);
  }
}

TEST(KendallTauFullTest, RejectsBadInput) {
  EXPECT_FALSE(KendallTauFull({1, 2}, {1, 2, 3}).ok());
  EXPECT_FALSE(KendallTauFull({1, 1}, {1, 2}).ok());
  EXPECT_FALSE(KendallTauFull({1, 2}, {1, 3}).ok());  // different item sets
}

// ----------------------------------------------------------- Kendall top-ℓ ---

TEST(KendallTauTopLTest, IdenticalListsZero) {
  EXPECT_DOUBLE_EQ(KendallTauTopL({5, 9, 2}, {5, 9, 2}).ValueOrDie(), 0.0);
}

TEST(KendallTauTopLTest, DisjointListsOne) {
  // Completely disjoint top-ℓ lists are at the maximum distance.
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {4, 5, 6}).ValueOrDie(), 1.0);
}

TEST(KendallTauTopLTest, HandComputedFourCases) {
  // a = [1,2,3], b = [1,3,4], p = 0.5.
  // Pairs over union {1,2,3,4}:
  //  {1,2}: both in a (1≺2); only 1 in b → case 2, 1 ahead: penalty 0.
  //  {1,3}: in both, same order: 0.
  //  {1,4}: both in b (1≺4); only 1 in a → case 2: 0.
  //  {2,3}: both in a (2≺3); only 3 in b → case 2, present item 3 must be
  //         ahead but a says 2≺3: penalty 1.
  //  {2,4}: 2 only in a, 4 only in b → case 3: penalty 1.
  //  {3,4}: both in b (3≺4); only 3 in a → case 2: 0.
  // Total = 2; normalizer = ℓ² + ℓ(ℓ−1)p = 9 + 3 = 12.
  TopLKendallOptions opts;
  opts.normalized = false;
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {1, 3, 4}, opts).ValueOrDie(),
                   2.0);
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {1, 3, 4}).ValueOrDie(),
                   2.0 / 12.0);
}

TEST(KendallTauTopLTest, PenaltyParameterMatters) {
  // Lists sharing no order info within their exclusive tails.
  TopLKendallOptions p0;
  p0.p = 0.0;
  p0.normalized = false;
  TopLKendallOptions p1;
  p1.p = 1.0;
  p1.normalized = false;
  const RankedList a = {1, 2, 3};
  const RankedList b = {4, 5, 6};
  // Case-4 pairs: {1,2},{1,3},{2,3},{4,5},{4,6},{5,6} = 6 pairs; case-3: 9.
  EXPECT_DOUBLE_EQ(KendallTauTopL(a, b, p0).ValueOrDie(), 9.0);
  EXPECT_DOUBLE_EQ(KendallTauTopL(a, b, p1).ValueOrDie(), 15.0);
}

TEST(KendallTauTopLTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {3, 5, 1}).ValueOrDie(),
                   KendallTauTopL({3, 5, 1}, {1, 2, 3}).ValueOrDie());
}

TEST(KendallTauTopLTest, ValueInUnitInterval) {
  Rng rng(7);
  for (int t = 0; t < 50; ++t) {
    RankedList a, b;
    for (Item i = 0; i < 10; ++i) {
      a.push_back(static_cast<Item>(rng.UniformInt(1000) + 1000 * i));
      b.push_back(static_cast<Item>(rng.UniformInt(1000) + 1000 * i + 500));
    }
    const double d = KendallTauTopL(a, b).ValueOrDie();
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(KendallTauTopLTest, RejectsBadInput) {
  EXPECT_FALSE(KendallTauTopL({}, {}).ok());
  EXPECT_FALSE(KendallTauTopL({1, 2}, {1, 2, 3}).ok());
  EXPECT_FALSE(KendallTauTopL({1, 1}, {1, 2}).ok());
  TopLKendallOptions bad;
  bad.p = 1.5;
  EXPECT_FALSE(KendallTauTopL({1, 2}, {3, 4}, bad).ok());
}

// -------------------------------------------------------- preference matrix ---

TEST(PreferenceMatrixTest, CountsPairwiseVotes) {
  auto pm = PreferenceMatrix::Build({{1, 2, 3}, {2, 1, 3}, {1, 3, 2}}, {});
  ASSERT_TRUE(pm.ok());
  const auto& m = pm.ValueOrDie();
  EXPECT_DOUBLE_EQ(m.Preference(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.Preference(2, 1), 1.0);
  EXPECT_TRUE(m.MajorityPrefers(1, 2));
  EXPECT_FALSE(m.MajorityPrefers(2, 1));
  EXPECT_DOUBLE_EQ(m.Preference(1, 3), 3.0);
}

TEST(PreferenceMatrixTest, PresentBeatsAbsent) {
  auto pm = PreferenceMatrix::Build({{1, 2}, {3, 4}}, {});
  ASSERT_TRUE(pm.ok());
  // 1 present only in list 1, 3 present only in list 2: one vote each way.
  EXPECT_DOUBLE_EQ(pm.ValueOrDie().Preference(1, 3), 1.0);
  EXPECT_DOUBLE_EQ(pm.ValueOrDie().Preference(3, 1), 1.0);
}

TEST(PreferenceMatrixTest, WeightsScaleVotes) {
  auto pm = PreferenceMatrix::Build({{1, 2}, {2, 1}}, {3.0, 1.0});
  ASSERT_TRUE(pm.ok());
  EXPECT_DOUBLE_EQ(pm.ValueOrDie().Preference(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(pm.ValueOrDie().Preference(2, 1), 1.0);
  EXPECT_TRUE(pm.ValueOrDie().MajorityPrefers(1, 2));
}

TEST(PreferenceMatrixTest, RejectsBadInput) {
  EXPECT_FALSE(PreferenceMatrix::Build({}, {}).ok());
  EXPECT_FALSE(PreferenceMatrix::Build({{1, 2}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(PreferenceMatrix::Build({{1, 1}}, {}).ok());
  EXPECT_FALSE(PreferenceMatrix::Build({{1, 2}}, {-1.0}).ok());
}

// ---------------------------------------------------------------- Borda ---

TEST(BordaTest, UnweightedKnownExample) {
  // Lists over {a=1,b=2,c=3}: ℓ = 3; scores: rank r gets ℓ − r.
  auto scores = WeightedBordaScores({{1, 2, 3}, {2, 1, 3}}, {});
  ASSERT_TRUE(scores.ok());
  // Union order: 1, 2, 3.
  // 1: (3−0) + (3−1) = 5;  2: (3−1)+(3−0) = 5;  3: 1+1 = 2.
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[0], 5.0);
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[1], 5.0);
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[2], 2.0);
}

TEST(BordaTest, WeightsShiftTheWinner) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}};
  auto unweighted = WeightedBordaScores(lists, {});
  ASSERT_TRUE(unweighted.ok());
  EXPECT_DOUBLE_EQ(unweighted.ValueOrDie()[0], unweighted.ValueOrDie()[1]);
  auto weighted = WeightedBordaScores(lists, {5.0, 1.0});
  ASSERT_TRUE(weighted.ok());
  EXPECT_GT(weighted.ValueOrDie()[0], weighted.ValueOrDie()[1]);  // item 1 wins
}

TEST(BordaTest, AbsentItemContributesNothing) {
  auto scores = WeightedBordaScores({{1, 2}, {3, 4}}, {});
  ASSERT_TRUE(scores.ok());
  // Every item appears in exactly one list at symmetric positions.
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[0], scores.ValueOrDie()[2]);  // 1 vs 3
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[1], scores.ValueOrDie()[3]);  // 2 vs 4
}

// --------------------------------------------------------------- Copeland ---

TEST(CopelandTest, CondorcetWinnerGetsTopScore) {
  // Item 1 beats every other item in a majority of lists.
  auto scores =
      WeightedCopelandScores({{1, 2, 3}, {1, 3, 2}, {2, 1, 3}}, {});
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[0], 2.0);  // item 1 beats 2 and 3
  EXPECT_GT(scores.ValueOrDie()[0], scores.ValueOrDie()[1]);
  EXPECT_GT(scores.ValueOrDie()[0], scores.ValueOrDie()[2]);
}

TEST(CopelandTest, WeightedMajorityFlips) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}, {2, 1}};
  auto unweighted = WeightedCopelandScores(lists, {});
  ASSERT_TRUE(unweighted.ok());
  EXPECT_GT(unweighted.ValueOrDie()[1], unweighted.ValueOrDie()[0]);
  // Give the first list overwhelming weight: item 1 now wins.
  auto weighted = WeightedCopelandScores(lists, {10.0, 1.0, 1.0});
  ASSERT_TRUE(weighted.ok());
  EXPECT_GT(weighted.ValueOrDie()[0], weighted.ValueOrDie()[1]);
}

// ------------------------------------------------------ local kemenization ---

TEST(LocalKemenizationTest, FixesObviousInversion) {
  const std::vector<RankedList> lists = {{1, 2, 3}, {1, 2, 3}, {1, 2, 3}};
  RankedList tau = {3, 2, 1};
  ASSERT_TRUE(LocalKemenization(lists, {}, &tau).ok());
  EXPECT_EQ(tau, (RankedList{1, 2, 3}));
}

TEST(LocalKemenizationTest, NeverWorsensKemenyObjective) {
  Rng rng(11);
  for (int t = 0; t < 40; ++t) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 4; ++j) {
      RankedList l(8);
      std::iota(l.begin(), l.end(), 0u);
      rng.Shuffle(&l);
      l.resize(5);
      lists.push_back(l);
    }
    RankedList tau = UnionOfLists(lists);
    rng.Shuffle(&tau);
    const double before = KemenyObjective(tau, lists, {}).ValueOrDie();
    RankedList improved = tau;
    ASSERT_TRUE(LocalKemenization(lists, {}, &improved).ok());
    const double after = KemenyObjective(improved, lists, {}).ValueOrDie();
    EXPECT_LE(after, before + 1e-9) << "trial " << t;
  }
}

TEST(LocalKemenizationTest, ResultIsLocallyOptimal) {
  Rng rng(13);
  for (int t = 0; t < 20; ++t) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 3; ++j) {
      RankedList l(6);
      std::iota(l.begin(), l.end(), 0u);
      rng.Shuffle(&l);
      lists.push_back(l);
    }
    RankedList tau(6);
    std::iota(tau.begin(), tau.end(), 0u);
    rng.Shuffle(&tau);
    ASSERT_TRUE(LocalKemenization(lists, {}, &tau).ok());
    // No adjacent pair should be majority-inverted.
    auto pm = PreferenceMatrix::Build(lists, {}).ValueOrDie();
    for (size_t i = 0; i + 1 < tau.size(); ++i) {
      EXPECT_FALSE(pm.MajorityPrefers(tau[i + 1], tau[i]))
          << "trial " << t << " position " << i;
    }
  }
}

// ------------------------------------------------------------- aggregation ---

TEST(AggregateRankingsTest, ReturnsTopK) {
  const std::vector<RankedList> lists = {{1, 2, 3, 4}, {2, 1, 3, 5}};
  AggregationOptions opts;
  auto r = AggregateRankings(lists, {}, 3, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().size(), 3u);
}

TEST(AggregateRankingsTest, KLargerThanUnionReturnsUnion) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 3}};
  auto r = AggregateRankings(lists, {}, 100, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().size(), 3u);  // union is {1,2,3}
}

TEST(AggregateRankingsTest, PerfectConsensusIsRecovered) {
  const RankedList consensus = {7, 3, 9, 1, 5};
  const std::vector<RankedList> lists(4, consensus);
  for (auto method : {AggregationMethod::kBorda, AggregationMethod::kCopeland}) {
    AggregationOptions opts;
    opts.method = method;
    auto r = AggregateRankings(lists, {}, 5, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie(), consensus);
  }
}

TEST(AggregateRankingsTest, WeightsPullTowardClosestList) {
  const std::vector<RankedList> lists = {{1, 2, 3}, {4, 5, 6}, {4, 6, 5}};
  AggregationOptions opts;
  opts.method = AggregationMethod::kCopeland;
  // Dominant weight on the first list: its items must lead the output.
  auto r = AggregateRankings(lists, {100.0, 1.0, 1.0}, 3, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), (RankedList{1, 2, 3}));
}

TEST(AggregateRankingsTest, UnweightedOptionIgnoresWeights) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}, {2, 1}};
  AggregationOptions opts;
  opts.use_weights = false;
  auto r = AggregateRankings(lists, {100.0, 1.0, 1.0}, 2, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie()[0], 2u);  // majority wins despite the weights
}

TEST(AggregateRankingsTest, DeterministicOnTies) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}};
  auto a = AggregateRankings(lists, {}, 2, {});
  auto b = AggregateRankings(lists, {}, 2, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie(), b.ValueOrDie());
}

TEST(AggregateRankingsTest, AggregationApproximatesKemeny) {
  // The aggregated list should score no worse on the Kemeny objective than
  // the best single input list (a weak but meaningful quality bar).
  Rng rng(17);
  for (int t = 0; t < 20; ++t) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 5; ++j) {
      RankedList l(10);
      std::iota(l.begin(), l.end(), 0u);
      // Mild perturbations of a common base order.
      for (int s = 0; s < 3; ++s) {
        const size_t i = rng.UniformInt(9);
        std::swap(l[i], l[i + 1]);
      }
      lists.push_back(l);
    }
    AggregationOptions opts;
    opts.method = AggregationMethod::kCopeland;
    auto agg = AggregateRankings(lists, {}, 10, opts);
    ASSERT_TRUE(agg.ok());
    const double agg_cost =
        KemenyObjective(agg.ValueOrDie(), lists, {}).ValueOrDie();
    double best_single = 1e9;
    for (const auto& l : lists) {
      best_single =
          std::min(best_single, KemenyObjective(l, lists, {}).ValueOrDie());
    }
    EXPECT_LE(agg_cost, best_single + 1e-9) << "trial " << t;
  }
}

TEST(AggregateRankingsTest, RejectsBadInput) {
  EXPECT_FALSE(AggregateRankings({}, {}, 3, {}).ok());
  EXPECT_FALSE(AggregateRankings({{1, 2}}, {}, 0, {}).ok());
  EXPECT_FALSE(AggregateRankings({{1, 1}}, {}, 2, {}).ok());
  EXPECT_FALSE(AggregateRankings({{1, 2}}, {1.0, 2.0}, 2, {}).ok());
}

// ------------------------------------------- reference-pipeline equivalence ---
//
// The aggregation pipeline as it stood before the dense local-id tally: an
// unordered_map index and an O(lists·m²) pairwise fill, Item-keyed majority
// tests, and a separate union for sorting. The optimized pipeline must
// reproduce its tally bit for bit and its answers exactly.

Status ReferenceValidate(const std::vector<RankedList>& lists,
                         const std::vector<double>& weights) {
  if (lists.empty()) {
    return Status::InvalidArgument("aggregation needs at least one list");
  }
  if (!weights.empty() && weights.size() != lists.size()) {
    return Status::InvalidArgument("one weight per list expected");
  }
  for (double w : weights) {
    if (!(w >= 0.0)) {
      return Status::InvalidArgument("weights must be non-negative");
    }
  }
  for (const auto& list : lists) {
    INFLEX_RETURN_NOT_OK(ValidateRankedList(list));
    if (list.empty()) {
      return Status::InvalidArgument("cannot aggregate an empty list");
    }
  }
  return Status::OK();
}

struct ReferenceTally {
  RankedList items;
  std::unordered_map<Item, size_t> index;
  std::vector<double> tally;

  double Preference(Item v, Item v_prime) const {
    return tally[index.at(v) * items.size() + index.at(v_prime)];
  }
  bool MajorityPrefers(Item v, Item v_prime) const {
    return Preference(v, v_prime) > Preference(v_prime, v);
  }
};

ReferenceTally ReferenceBuild(const std::vector<RankedList>& lists,
                              const std::vector<double>& weights) {
  ReferenceTally pm;
  pm.items = UnionOfLists(lists);
  const size_t m = pm.items.size();
  for (size_t i = 0; i < m; ++i) pm.index[pm.items[i]] = i;
  pm.tally.assign(m * m, 0.0);
  std::vector<size_t> rank_of(m);
  constexpr size_t kAbsent = static_cast<size_t>(-1);
  for (size_t j = 0; j < lists.size(); ++j) {
    const double w = weights.empty() ? 1.0 : weights[j];
    if (w == 0.0) continue;
    std::fill(rank_of.begin(), rank_of.end(), kAbsent);
    for (size_t r = 0; r < lists[j].size(); ++r) {
      rank_of[pm.index.at(lists[j][r])] = r;
    }
    for (size_t x = 0; x < m; ++x) {
      const size_t rx = rank_of[x];
      for (size_t y = x + 1; y < m; ++y) {
        const size_t ry = rank_of[y];
        if (rx == kAbsent && ry == kAbsent) continue;
        const bool x_wins = (ry == kAbsent) || (rx != kAbsent && rx < ry);
        if (x_wins) {
          pm.tally[x * m + y] += w;
        } else {
          pm.tally[y * m + x] += w;
        }
      }
    }
  }
  return pm;
}

void ReferenceLocalKemenization(const ReferenceTally& pm, RankedList* tau) {
  for (size_t i = 1; i < tau->size(); ++i) {
    for (size_t j = i; j > 0; --j) {
      const Item above = (*tau)[j - 1];
      const Item below = (*tau)[j];
      if (!pm.index.count(above) || !pm.index.count(below)) break;
      if (!pm.MajorityPrefers(below, above)) break;
      std::swap((*tau)[j - 1], (*tau)[j]);
    }
  }
}

Result<RankedList> ReferenceAggregate(const std::vector<RankedList>& lists,
                                      const std::vector<double>& weights,
                                      size_t k,
                                      const AggregationOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  std::vector<double> w;
  if (options.use_weights) w = weights;
  INFLEX_RETURN_NOT_OK(ReferenceValidate(lists, w));
  const ReferenceTally pm = ReferenceBuild(lists, w);
  const RankedList& u = pm.items;
  std::vector<double> scores(u.size(), 0.0);
  if (options.method == AggregationMethod::kBorda) {
    size_t ell = 0;
    for (const auto& list : lists) ell = std::max(ell, list.size());
    for (size_t j = 0; j < lists.size(); ++j) {
      const double wj = w.empty() ? 1.0 : w[j];
      for (size_t r = 0; r < lists[j].size(); ++r) {
        scores[pm.index.at(lists[j][r])] += wj * static_cast<double>(ell - r);
      }
    }
  } else {
    for (size_t x = 0; x < u.size(); ++x) {
      for (size_t y = 0; y < u.size(); ++y) {
        if (x != y && pm.MajorityPrefers(u[x], u[y])) scores[x] += 1.0;
      }
    }
  }
  std::vector<size_t> order(u.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return u[a] < u[b];
  });
  RankedList aggregated(u.size());
  for (size_t i = 0; i < u.size(); ++i) aggregated[i] = u[order[i]];
  if (options.local_kemenization) ReferenceLocalKemenization(pm, &aggregated);
  if (aggregated.size() > k) aggregated.resize(k);
  return aggregated;
}

// 1–8 lists of length 1–50 drawn from one pool, so lists overlap; weights
// are sometimes absent, sometimes zero, and sometimes tied.
struct RandomInstance {
  std::vector<RankedList> lists;
  std::vector<double> weights;
};

RandomInstance MakeRandomInstance(Rng* rng) {
  RandomInstance inst;
  const size_t num_lists = 1 + rng->UniformInt(8);
  const size_t max_len = 1 + rng->UniformInt(50);
  const size_t pool = max_len + rng->UniformInt(2 * max_len + 1);
  RankedList ids(pool);
  std::iota(ids.begin(), ids.end(), Item{1000});
  for (size_t j = 0; j < num_lists; ++j) {
    rng->Shuffle(&ids);
    inst.lists.emplace_back(ids.begin(),
                            ids.begin() + 1 + rng->UniformInt(max_len));
  }
  if (rng->Bernoulli(0.8)) {
    for (size_t j = 0; j < num_lists; ++j) {
      const double u = rng->Uniform();
      inst.weights.push_back(u < 0.15 ? 0.0 : u < 0.3 ? 0.5 : u);
    }
  }
  return inst;
}

TEST(AggregationEquivalenceTest, TallyMatchesPairwiseReferenceBitForBit) {
  Rng rng(2014);
  for (int t = 0; t < 2000; ++t) {
    const RandomInstance inst = MakeRandomInstance(&rng);
    const ReferenceTally ref = ReferenceBuild(inst.lists, inst.weights);
    auto pm = PreferenceMatrix::Build(inst.lists, inst.weights);
    ASSERT_TRUE(pm.ok()) << pm.status().ToString();
    const PreferenceMatrix& got = pm.ValueOrDie();
    ASSERT_EQ(got.items(), ref.items) << "trial " << t;
    const size_t m = ref.items.size();
    std::vector<double> cells(m * m);
    for (size_t x = 0; x < m; ++x) {
      for (size_t y = 0; y < m; ++y) cells[x * m + y] = got.tally()(x, y);
    }
    ASSERT_EQ(std::memcmp(cells.data(), ref.tally.data(),
                          m * m * sizeof(double)),
              0)
        << "trial " << t;
  }
}

TEST(AggregationEquivalenceTest, AnswersMatchReferencePipeline) {
  Rng rng(2015);
  for (int t = 0; t < 2000; ++t) {
    const RandomInstance inst = MakeRandomInstance(&rng);
    const size_t u = UnionOfLists(inst.lists).size();
    // k spans 1 .. |U| + 5, so k > |U| is covered.
    const size_t k = 1 + rng.UniformInt(u + 5);
    for (auto method :
         {AggregationMethod::kCopeland, AggregationMethod::kBorda}) {
      for (bool use_weights : {true, false}) {
        for (bool lk : {true, false}) {
          AggregationOptions opts;
          opts.method = method;
          opts.use_weights = use_weights;
          opts.local_kemenization = lk;
          auto got = AggregateRankings(inst.lists, inst.weights, k, opts);
          auto want = ReferenceAggregate(inst.lists, inst.weights, k, opts);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok());
          ASSERT_EQ(got.ValueOrDie(), want.ValueOrDie())
              << "trial " << t << " method " << static_cast<int>(method)
              << " weights " << use_weights << " lk " << lk;
        }
      }
    }
  }
}

TEST(AggregationEquivalenceTest, RejectsBadInputLikeReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    std::vector<RankedList> lists;
    std::vector<double> weights;
    size_t k;
  };
  const std::vector<Case> cases = {
      {{}, {}, 3},                          // no lists
      {{{1, 2}}, {}, 0},                    // k = 0
      {{{1, 1}}, {}, 2},                    // duplicate item
      {{{1, 2}, {3, 4, 3}}, {}, 2},         // duplicate in a later list
      {{{1, 2}}, {1.0, 2.0}, 2},            // weight count mismatch
      {{{1, 2}, {2, 1}}, {1.0, -1.0}, 2},   // negative weight
      {{{1, 2}}, {nan}, 2},                 // NaN weight
      {{{1, 2}, {}}, {}, 2},                // empty list
      {{{}, {1, 1}}, {}, 2},                // empty list before a duplicate
      {{{1, 1}, {}}, {}, 2},                // duplicate before an empty list
      {{{1, 2, 1}, {3}}, {1.0}, 2},         // mismatch reported first
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    for (bool use_weights : {true, false}) {
      AggregationOptions opts;
      opts.use_weights = use_weights;
      const auto& in = cases[c];
      auto got = AggregateRankings(in.lists, in.weights, in.k, opts);
      auto want = ReferenceAggregate(in.lists, in.weights, in.k, opts);
      // Without weights, the weight cases are valid inputs.
      if (use_weights) {
        ASSERT_FALSE(want.ok()) << "case " << c;
      }
      ASSERT_EQ(got.status(), want.status())
          << "case " << c << ": " << got.status().ToString() << " vs "
          << want.status().ToString();
      if (want.ok()) {
        EXPECT_EQ(got.ValueOrDie(), want.ValueOrDie()) << "case " << c;
      }
    }
  }
}

TEST(AggregationEquivalenceTest, LocalKemenizationNeverMovesItemsOutsideU) {
  Rng rng(2016);
  for (int t = 0; t < 300; ++t) {
    const RandomInstance inst = MakeRandomInstance(&rng);
    RankedList tau = UnionOfLists(inst.lists);
    // Strangers the lists never mention, at random positions.
    const size_t strangers = 1 + rng.UniformInt(3);
    for (size_t s = 0; s < strangers; ++s) {
      tau.insert(tau.begin() + rng.UniformInt(tau.size() + 1),
                 static_cast<Item>(s));
    }
    rng.Shuffle(&tau);
    RankedList want = tau;
    ReferenceLocalKemenization(ReferenceBuild(inst.lists, inst.weights),
                               &want);
    RankedList got = tau;
    ASSERT_TRUE(LocalKemenization(inst.lists, inst.weights, &got).ok());
    ASSERT_EQ(got, want) << "trial " << t;
    for (size_t i = 0; i < tau.size(); ++i) {
      if (tau[i] < strangers) {
        EXPECT_EQ(got[i], tau[i]) << "trial " << t;
      }
    }
  }
}

TEST(KemenyObjectiveTest, ZeroForIdenticalInput) {
  const RankedList l = {4, 2, 9};
  EXPECT_DOUBLE_EQ(KemenyObjective(l, {l, l}, {}).ValueOrDie(), 0.0);
}

// ------------------------------------------------------------ exact Kemeny ---

TEST(ExactKemenyTest, ConsensusHasZeroCost) {
  const RankedList l = {3, 1, 4, 2};
  auto r = ExactKemenyAggregate({l, l, l}, {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie(), l);
  EXPECT_DOUBLE_EQ(PairwiseKemenyCost(l, {l, l, l}, {}).ValueOrDie(), 0.0);
}

TEST(ExactKemenyTest, MatchesBruteForceOnSmallInstances) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 5; ++j) {
      RankedList l(5);
      std::iota(l.begin(), l.end(), 10u);
      rng.Shuffle(&l);
      lists.push_back(l);
    }
    auto dp = ExactKemenyAggregate(lists, {});
    ASSERT_TRUE(dp.ok());
    const double dp_cost =
        PairwiseKemenyCost(dp.ValueOrDie(), lists, {}).ValueOrDie();
    // Brute force over all 5! permutations.
    RankedList perm = {10, 11, 12, 13, 14};
    double best = 1e18;
    std::sort(perm.begin(), perm.end());
    do {
      best = std::min(best, PairwiseKemenyCost(perm, lists, {}).ValueOrDie());
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(dp_cost, best, 1e-9) << "trial " << trial;
  }
}

TEST(ExactKemenyTest, NeverWorseThanHeuristicAggregators) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 4; ++j) {
      RankedList l(9);
      std::iota(l.begin(), l.end(), 0u);
      rng.Shuffle(&l);
      lists.push_back(l);
    }
    auto exact = ExactKemenyAggregate(lists, {});
    ASSERT_TRUE(exact.ok());
    const double optimum =
        PairwiseKemenyCost(exact.ValueOrDie(), lists, {}).ValueOrDie();
    for (auto method : {AggregationMethod::kBorda, AggregationMethod::kCopeland,
                        AggregationMethod::kMarkovChainMc4}) {
      AggregationOptions opts;
      opts.method = method;
      auto heur = AggregateRankings(lists, {}, 9, opts);
      ASSERT_TRUE(heur.ok());
      const double cost =
          PairwiseKemenyCost(heur.ValueOrDie(), lists, {}).ValueOrDie();
      EXPECT_GE(cost + 1e-9, optimum) << static_cast<int>(method);
      // Sanity against the cited approximation bounds: nothing remotely
      // near-optimal should blow past 5x on mild random instances.
      if (optimum > 0.0) {
        EXPECT_LE(cost, 5.0 * optimum + 1e-9) << static_cast<int>(method);
      }
    }
  }
}

TEST(ExactKemenyTest, WeightedInstanceFollowsDominantList) {
  const std::vector<RankedList> lists = {{1, 2, 3}, {3, 2, 1}, {3, 2, 1}};
  auto unweighted = ExactKemenyAggregate(lists, {});
  ASSERT_TRUE(unweighted.ok());
  EXPECT_EQ(unweighted.ValueOrDie(), (RankedList{3, 2, 1}));
  auto weighted = ExactKemenyAggregate(lists, {10.0, 1.0, 1.0});
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted.ValueOrDie(), (RankedList{1, 2, 3}));
}

TEST(ExactKemenyTest, RejectsOversizedUnions) {
  RankedList big(25);
  std::iota(big.begin(), big.end(), 0u);
  EXPECT_FALSE(ExactKemenyAggregate({big}, {}).ok());
  RankedList ok_list(10);
  std::iota(ok_list.begin(), ok_list.end(), 0u);
  EXPECT_FALSE(ExactKemenyAggregate({ok_list}, {}, /*max_union_size=*/5).ok());
}

TEST(PairwiseKemenyCostTest, Validation) {
  EXPECT_FALSE(PairwiseKemenyCost({1, 2}, {{1, 2, 3}}, {}).ok());  // subset
  EXPECT_FALSE(PairwiseKemenyCost({1, 2, 9}, {{1, 2, 3}}, {}).ok());
}

// ---------------------------------------------------------------- footrule ---

TEST(FootruleTest, KnownValues) {
  EXPECT_DOUBLE_EQ(
      FootruleDistance({1, 2, 3}, {1, 2, 3}).ValueOrDie(), 0.0);
  // Reversal of 3 items: |0−2| + |1−1| + |2−0| = 4; max = ⌊9/2⌋ = 4.
  EXPECT_DOUBLE_EQ(
      FootruleDistance({1, 2, 3}, {3, 2, 1}).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(FootruleDistance({1, 2, 3}, {3, 2, 1},
                                    /*normalized=*/false)
                       .ValueOrDie(),
                   4.0);
}

TEST(FootruleTest, DiaconisGrahamInequality) {
  // For permutations: Kendall ≤ Footrule ≤ 2 · Kendall (unnormalized).
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    RankedList a(12), b(12);
    std::iota(a.begin(), a.end(), 0u);
    b = a;
    rng.Shuffle(&a);
    rng.Shuffle(&b);
    const double kendall =
        KendallTauFull(a, b, /*normalized=*/false).ValueOrDie();
    const double footrule =
        FootruleDistance(a, b, /*normalized=*/false).ValueOrDie();
    EXPECT_LE(kendall, footrule + 1e-9);
    EXPECT_LE(footrule, 2.0 * kendall + 1e-9);
  }
}

TEST(FootruleTest, Validation) {
  EXPECT_FALSE(FootruleDistance({1, 2}, {1, 2, 3}).ok());
  EXPECT_FALSE(FootruleDistance({1, 2}, {1, 3}).ok());
  EXPECT_FALSE(FootruleDistance({1, 1}, {1, 2}).ok());
}

}  // namespace
}  // namespace rank
}  // namespace inflex
