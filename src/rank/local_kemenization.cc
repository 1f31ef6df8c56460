#include "rank/local_kemenization.h"

#include <utility>

namespace inflex {
namespace rank {

void LocalKemenize(const PreferenceTally& tally, std::vector<size_t>* order) {
  std::vector<size_t>& tau = *order;
  constexpr size_t kOutside = PreferenceMatrix::npos;
  // Insertion sort under the (non-transitive) majority relation: item at
  // position i bubbles up while it strictly beats its predecessor.
  for (size_t i = 1; i < tau.size(); ++i) {
    for (size_t j = i; j > 0; --j) {
      const size_t above = tau[j - 1];
      const size_t below = tau[j];
      if (above == kOutside || below == kOutside) break;
      if (!tally.Beats(below, above)) break;
      std::swap(tau[j - 1], tau[j]);
    }
  }
}

Status LocalKemenization(const std::vector<RankedList>& lists,
                         const std::vector<double>& weights,
                         RankedList* aggregated) {
  INFLEX_RETURN_NOT_OK(ValidateRankedList(*aggregated));
  INFLEX_ASSIGN_OR_RETURN(PreferenceMatrix pm,
                          PreferenceMatrix::Build(lists, weights));
  RankedList& tau = *aggregated;
  std::vector<size_t> order(tau.size());
  for (size_t i = 0; i < tau.size(); ++i) order[i] = pm.IndexOf(tau[i]);
  LocalKemenize(pm.tally(), &order);
  // Items outside U kept their positions; the rest are permuted in place.
  for (size_t i = 0; i < tau.size(); ++i) {
    if (order[i] != PreferenceMatrix::npos) tau[i] = pm.items()[order[i]];
  }
  return Status::OK();
}

}  // namespace rank
}  // namespace inflex
