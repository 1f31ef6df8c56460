#ifndef INFLEX_RANK_PREFERENCE_MATRIX_H_
#define INFLEX_RANK_PREFERENCE_MATRIX_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "rank/ranked_list.h"

namespace inflex {
namespace rank {

/// \brief The input lists over dense local ids: local id i stands for
/// items[i], and items is the union U in first-appearance order
/// (UnionOfLists). Every aggregator works on local ids and maps only its
/// output back to Items.
struct LocalLists {
  RankedList items;
  std::unordered_map<Item, size_t> index;  // Item → local id
  /// All lists as local ids, back to back; list j is ids[start(j), ends[j]).
  std::vector<size_t> ids;
  std::vector<size_t> ends;

  size_t num_items() const { return items.size(); }
  size_t num_lists() const { return ends.size(); }
  size_t start(size_t j) const { return j == 0 ? 0 : ends[j - 1]; }
};

/// Validates the inputs and remaps the lists to local ids in one pass.
/// `weights` must be empty (all lists count 1) or hold one non-negative
/// weight per list. Fails with InvalidArgument on a weight mismatch, an item
/// repeated within a list, or — unless `allow_empty_lists` — an empty list.
/// Errors are reported for the first offending list.
Result<LocalLists> RemapToLocalIds(const std::vector<RankedList>& lists,
                                   const std::vector<double>& weights,
                                   bool allow_empty_lists);

/// \brief Dense weighted pairwise-preference tally over local ids:
/// T(x, y) = Σ_j w_j · 1{list j ranks x ahead of y}, row-major m × m.
///
/// Top-ℓ semantics (matching the Copeland formulation in Algorithm 2 and the
/// Local Kemenization majority test): within a list, a present item is
/// preferred to an absent one; two absent items yield no vote.
///
/// Built once per aggregation and shared by weighted Copeland and Local
/// Kemenization, so both see exactly the same majority relation.
class PreferenceTally {
 public:
  /// Tallies lists already checked by RemapToLocalIds with these `weights`.
  PreferenceTally(const LocalLists& local, const std::vector<double>& weights);

  size_t num_items() const { return m_; }
  /// Total weight of lists preferring local id x over local id y.
  double operator()(size_t x, size_t y) const { return cells_[x * m_ + y]; }
  /// True when the weighted majority strictly prefers x over y.
  bool Beats(size_t x, size_t y) const { return (*this)(x, y) > (*this)(y, x); }

 private:
  size_t m_;
  std::vector<double> cells_;
};

/// \brief The preference tally addressed by Item: a PreferenceTally plus the
/// local-id remap it was built from.
class PreferenceMatrix {
 public:
  /// Builds the tally. `weights` must be empty (treated as all-ones) or have
  /// one entry per list. Fails on mismatched sizes, negative weights, or
  /// duplicate items within a list.
  static Result<PreferenceMatrix> Build(const std::vector<RankedList>& lists,
                                        const std::vector<double>& weights);

  /// Items of U in first-appearance order; position = local id.
  const RankedList& items() const { return local_.items; }
  size_t num_items() const { return local_.num_items(); }
  const PreferenceTally& tally() const { return tally_; }

  /// Total weight of lists preferring v over v'. Items must belong to U.
  double Preference(Item v, Item v_prime) const;

  /// True when the weighted majority strictly prefers v over v'.
  bool MajorityPrefers(Item v, Item v_prime) const {
    return Preference(v, v_prime) > Preference(v_prime, v);
  }

  /// Dense index of an item in [0, num_items()), or npos when not in U.
  size_t IndexOf(Item v) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

 private:
  PreferenceMatrix(LocalLists local, PreferenceTally tally)
      : local_(std::move(local)), tally_(std::move(tally)) {}

  LocalLists local_;
  PreferenceTally tally_;
};

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_PREFERENCE_MATRIX_H_
