#include "rank/preference_matrix.h"

#include <algorithm>

#include "util/check.h"

namespace inflex {
namespace rank {

Result<LocalLists> RemapToLocalIds(const std::vector<RankedList>& lists,
                                   const std::vector<double>& weights,
                                   bool allow_empty_lists) {
  if (!weights.empty() && weights.size() != lists.size()) {
    return Status::InvalidArgument("one weight per list expected");
  }
  for (double w : weights) {
    if (!(w >= 0.0)) {
      return Status::InvalidArgument("weights must be non-negative");
    }
  }
  size_t total = 0;
  for (const auto& list : lists) total += list.size();

  LocalLists local;
  local.items.reserve(total);
  local.index.reserve(total);
  local.ids.reserve(total);
  local.ends.reserve(lists.size());
  // 1 + the last list each local id was seen in: a second sighting within
  // the same list is a duplicate item.
  std::vector<size_t> seen_in;
  seen_in.reserve(total);
  for (size_t j = 0; j < lists.size(); ++j) {
    for (Item v : lists[j]) {
      const auto [it, fresh] = local.index.try_emplace(v, local.items.size());
      if (fresh) {
        local.items.push_back(v);
        seen_in.push_back(0);
      }
      const size_t x = it->second;
      if (seen_in[x] == j + 1) {
        return Status::InvalidArgument("ranked list contains duplicate items");
      }
      seen_in[x] = j + 1;
      local.ids.push_back(x);
    }
    if (!allow_empty_lists && lists[j].empty()) {
      return Status::InvalidArgument("cannot aggregate an empty list");
    }
    local.ends.push_back(local.ids.size());
  }
  return local;
}

PreferenceTally::PreferenceTally(const LocalLists& local,
                                 const std::vector<double>& weights)
    : m_(local.num_items()), cells_(m_ * m_, 0.0) {
  // Walking list j in rank order, row x gains w_j in every column y that
  // the list does not rank ahead of x: y after x, or y absent ("present
  // beats absent" without a pairwise loop). Columns of x itself and of the
  // items already walked gain +0.0, which leaves a cell (always ≥ +0.0)
  // bit-for-bit unchanged, so every cell sums the same w_j in the same list
  // order as a pairwise comparison of positions would.
  const size_t m = m_;
  std::vector<double> gain(m);
  for (size_t j = 0; j < local.num_lists(); ++j) {
    const double w = weights.empty() ? 1.0 : weights[j];
    if (w == 0.0) continue;
    std::fill(gain.begin(), gain.end(), w);
    for (size_t p = local.start(j); p < local.ends[j]; ++p) {
      const size_t x = local.ids[p];
      gain[x] = 0.0;
      double* row = cells_.data() + x * m;
      for (size_t y = 0; y < m; ++y) row[y] += gain[y];
    }
  }
}

Result<PreferenceMatrix> PreferenceMatrix::Build(
    const std::vector<RankedList>& lists, const std::vector<double>& weights) {
  if (lists.empty()) {
    return Status::InvalidArgument("preference matrix needs at least one list");
  }
  INFLEX_ASSIGN_OR_RETURN(
      LocalLists local,
      RemapToLocalIds(lists, weights, /*allow_empty_lists=*/true));
  PreferenceTally tally(local, weights);
  return PreferenceMatrix(std::move(local), std::move(tally));
}

double PreferenceMatrix::Preference(Item v, Item v_prime) const {
  const size_t x = IndexOf(v);
  const size_t y = IndexOf(v_prime);
  INFLEX_CHECK_NE(x, npos);
  INFLEX_CHECK_NE(y, npos);
  return tally_(x, y);
}

size_t PreferenceMatrix::IndexOf(Item v) const {
  auto it = local_.index.find(v);
  return it == local_.index.end() ? npos : it->second;
}

}  // namespace rank
}  // namespace inflex
