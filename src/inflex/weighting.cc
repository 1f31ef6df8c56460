#include "inflex/weighting.h"

#include <algorithm>
#include <cmath>

namespace inflex {
namespace core {

Result<std::vector<double>> ComputeImportanceWeights(
    const std::vector<bbtree::Neighbor>& neighbors,
    const WeightingOptions& options) {
  double exp_kl_max = 0.0;  // e^KL_max of Eq. 9, the same for every neighbor
  switch (options.function) {
    case WeightFunction::kExponentialDecay:
      if (!(options.exponential_scale > 0.0)) {
        return Status::InvalidArgument("exponential_scale must be positive");
      }
      break;
    case WeightFunction::kPaperEq9:
      if (!(options.kl_max > 0.0)) {
        return Status::InvalidArgument("kl_max must be positive");
      }
      exp_kl_max = std::exp(options.kl_max);
      break;
  }
  std::vector<double> weights;
  weights.reserve(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const double kl = neighbors[i].divergence;
    if (!(kl >= 0.0)) {
      return Status::InvalidArgument("negative divergence in neighbor list");
    }
    if (i > 0 && kl < neighbors[i - 1].divergence) {
      return Status::InvalidArgument(
          "neighbors must be sorted by ascending divergence");
    }
    double w = 0.0;
    switch (options.function) {
      case WeightFunction::kExponentialDecay:
        w = std::exp(-kl / options.exponential_scale);
        break;
      case WeightFunction::kPaperEq9: {
        const double clamped = std::min(kl, options.kl_max);
        w = (exp_kl_max - std::exp(clamped)) / (exp_kl_max - 1.0);
        break;
      }
    }
    weights.push_back(w);
  }
  return weights;
}

size_t SelectNeighborCount(const std::vector<double>& weights,
                           const WeightingOptions& options) {
  const size_t total = weights.size();
  if (!options.enable_selection || total <= 1) return total;
  const size_t t_min = std::max<size_t>(options.min_neighbors, 1);

  double prefix = weights[0];
  for (size_t t = 2; t <= total; ++t) {
    prefix += weights[t - 1];
    if (t - 1 < t_min) continue;  // keep at least min_neighbors
    if (prefix <= 0.0) return t - 1;
    const double normalized_t = weights[t - 1] / prefix;
    const double equal_share = 1.0 / static_cast<double>(t);
    bool marginal = false;
    switch (options.selection_rule) {
      case SelectionRule::kAbsoluteGap:
        marginal = equal_share - normalized_t >= options.selection_threshold;
        break;
      case SelectionRule::kRelativeShare:
        marginal = normalized_t < options.selection_ratio * equal_share;
        break;
    }
    if (marginal) {
      // The t-th neighbor's share is materially below an equal split: its
      // contribution (and everything farther away) is marginal.
      return t - 1;
    }
  }
  return total;
}

}  // namespace core
}  // namespace inflex
