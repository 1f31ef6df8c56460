#include "rank/aggregators.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "rank/kendall_tau.h"
#include "rank/local_kemenization.h"
#include "rank/markov_chain.h"
#include "rank/preference_matrix.h"

namespace inflex {
namespace rank {

namespace {

Result<LocalLists> RemapInputs(const std::vector<RankedList>& lists,
                               const std::vector<double>& weights) {
  if (lists.empty()) {
    return Status::InvalidArgument("aggregation needs at least one list");
  }
  return RemapToLocalIds(lists, weights, /*allow_empty_lists=*/false);
}

// Borda^w per local id. Each item gains at most one term per list, added in
// list order.
std::vector<double> BordaScores(const LocalLists& local,
                                const std::vector<double>& weights) {
  size_t ell = 0;
  for (size_t j = 0; j < local.num_lists(); ++j) {
    ell = std::max(ell, local.ends[j] - local.start(j));
  }
  std::vector<double> scores(local.num_items(), 0.0);
  for (size_t j = 0; j < local.num_lists(); ++j) {
    const double w = weights.empty() ? 1.0 : weights[j];
    for (size_t p = local.start(j); p < local.ends[j]; ++p) {
      // Rank r (0-based) gets Borda score ℓ − r (i.e. ℓ − τ(v) + 1 with
      // 1-based ranks as in the paper).
      const size_t r = p - local.start(j);
      scores[local.ids[p]] += w * static_cast<double>(ell - r);
    }
  }
  return scores;
}

// Copeland^w per local id: the number of items each one beats. The scores
// are small integer counts, so visiting each pair once is exact.
std::vector<double> CopelandScores(const PreferenceTally& tally) {
  const size_t m = tally.num_items();
  std::vector<double> scores(m, 0.0);
  for (size_t x = 0; x < m; ++x) {
    for (size_t y = x + 1; y < m; ++y) {
      const double xy = tally(x, y);
      const double yx = tally(y, x);
      if (xy > yx) {
        scores[x] += 1.0;
      } else if (yx > xy) {
        scores[y] += 1.0;
      }
    }
  }
  return scores;
}

}  // namespace

Result<std::vector<double>> WeightedBordaScores(
    const std::vector<RankedList>& lists, const std::vector<double>& weights) {
  INFLEX_ASSIGN_OR_RETURN(const LocalLists local, RemapInputs(lists, weights));
  return BordaScores(local, weights);
}

Result<std::vector<double>> WeightedCopelandScores(
    const std::vector<RankedList>& lists, const std::vector<double>& weights) {
  INFLEX_ASSIGN_OR_RETURN(const LocalLists local, RemapInputs(lists, weights));
  return CopelandScores(PreferenceTally(local, weights));
}

Result<RankedList> AggregateRankings(const std::vector<RankedList>& lists,
                                     const std::vector<double>& weights,
                                     size_t k,
                                     const AggregationOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const std::vector<double> no_weights;
  const std::vector<double>& w = options.use_weights ? weights : no_weights;
  INFLEX_ASSIGN_OR_RETURN(const LocalLists local, RemapInputs(lists, w));

  // One tally serves both Copeland scoring and Local Kemenization.
  std::optional<PreferenceTally> tally;
  if (options.method == AggregationMethod::kCopeland ||
      options.local_kemenization) {
    tally.emplace(local, w);
  }
  std::vector<double> scores;
  switch (options.method) {
    case AggregationMethod::kBorda:
      scores = BordaScores(local, w);
      break;
    case AggregationMethod::kCopeland:
      scores = CopelandScores(*tally);
      break;
    case AggregationMethod::kMarkovChainMc4: {
      INFLEX_ASSIGN_OR_RETURN(scores, Mc4StationaryDistribution(lists, w));
      break;
    }
  }

  const RankedList& u = local.items;
  std::vector<size_t> order(u.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return u[a] < u[b];
  });
  if (options.local_kemenization) LocalKemenize(*tally, &order);

  RankedList aggregated(std::min(k, order.size()));
  for (size_t i = 0; i < aggregated.size(); ++i) aggregated[i] = u[order[i]];
  return aggregated;
}

Result<double> KemenyObjective(const RankedList& candidate,
                               const std::vector<RankedList>& lists,
                               const std::vector<double>& weights,
                               double top_l_penalty) {
  INFLEX_RETURN_NOT_OK(RemapInputs(lists, weights).status());
  INFLEX_RETURN_NOT_OK(ValidateRankedList(candidate));
  if (candidate.empty()) {
    return Status::InvalidArgument("candidate list is empty");
  }
  TopLKendallOptions kt;
  kt.p = top_l_penalty;
  double total = 0.0, total_weight = 0.0;
  for (size_t j = 0; j < lists.size(); ++j) {
    const double wj = weights.empty() ? 1.0 : weights[j];
    const size_t ell = std::min(candidate.size(), lists[j].size());
    RankedList c(candidate.begin(), candidate.begin() + ell);
    RankedList l(lists[j].begin(), lists[j].begin() + ell);
    INFLEX_ASSIGN_OR_RETURN(const double d, KendallTauTopL(c, l, kt));
    total += wj * d;
    total_weight += wj;
  }
  if (total_weight == 0.0) {
    return Status::InvalidArgument("all weights are zero");
  }
  return total / total_weight;
}

}  // namespace rank
}  // namespace inflex
