#ifndef INFLEX_RANK_LOCAL_KEMENIZATION_H_
#define INFLEX_RANK_LOCAL_KEMENIZATION_H_

#include <vector>

#include "rank/preference_matrix.h"
#include "rank/ranked_list.h"

namespace inflex {
namespace rank {

/// Local Kemenization (Dwork et al., WWW 2001): greedy post-processing that
/// turns an initial aggregation into a *locally* Kemeny-optimal list — no
/// swap of two adjacent items can reduce the summed Kendall distance to the
/// inputs. Implemented, as in the paper, by insertion sort: each item is
/// bubbled up while the (weighted) majority of the input lists prefers it to
/// its predecessor. Pass empty `weights` for the unweighted variant.
///
/// The pass never worsens the weighted Kemeny objective (each accepted swap
/// strictly decreases it), which tests assert property-style.
Status LocalKemenization(const std::vector<RankedList>& lists,
                         const std::vector<double>& weights,
                         RankedList* aggregated);

/// The same insertion-sort pass over local ids of `tally`. Entries equal to
/// PreferenceMatrix::npos stand for items outside U: the input lists never
/// compare them, so they never move and nothing moves past them.
void LocalKemenize(const PreferenceTally& tally, std::vector<size_t>* order);

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_LOCAL_KEMENIZATION_H_
