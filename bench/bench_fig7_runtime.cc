// Figure 7: per-query run-time comparison of the online strategies, with
// the offline from-scratch CELF++ time for contrast. The paper's headline:
// INFLEX answers in < 30 ms what offline computation takes hours-days for.
#include <cstdio>

#include "common/evaluation.h"
#include "common/testbed.h"
#include "stats/descriptive.h"

using namespace inflex;             // NOLINT
using namespace inflex::benchsupport;  // NOLINT

int main() {
  auto tb_r = GetTestbed();
  if (!tb_r.ok()) {
    std::fprintf(stderr, "testbed: %s\n", tb_r.status().ToString().c_str());
    return 1;
  }
  const Testbed& tb = *tb_r.ValueOrDie();
  PrintBanner("Figure 7 — run-time comparison (per TIM query, k=50, K=10)",
              tb);

  const core::QueryStrategy strategies[] = {
      core::QueryStrategy::kInflex, core::QueryStrategy::kExactKnn,
      core::QueryStrategy::kApproxKnn, core::QueryStrategy::kApproxKnnSel,
      core::QueryStrategy::kApproxAd};

  TablePrinter table({"method", "avg ms", "search ms", "aggregation ms",
                      "max ms", "avg KL evals", "avg leaves",
                      "avg lists aggregated"});
  double inflex_ms = 0.0;
  for (core::QueryStrategy s : strategies) {
    core::QueryOptions opts;
    opts.strategy = s;
    opts.knn_k = 10;
    opts.max_leaves = 5;
    auto m = EvaluateStrategy(tb, opts, core::QueryStrategyName(s), 50,
                              /*evaluate_spread=*/false);
    if (!m.ok()) {
      std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
      return 1;
    }
    const auto& v = m.ValueOrDie();
    if (s == core::QueryStrategy::kInflex) inflex_ms = v.avg_query_ms;
    table.AddRow({v.name, TablePrinter::Fmt(v.avg_query_ms),
                  TablePrinter::Fmt(v.avg_search_ms),
                  TablePrinter::Fmt(v.avg_aggregation_ms),
                  TablePrinter::Fmt(v.max_query_ms),
                  TablePrinter::Fmt(v.avg_kl_evaluations, 1),
                  TablePrinter::Fmt(v.avg_leaves_visited, 2),
                  TablePrinter::Fmt(v.avg_lists_aggregated, 2)});
  }
  table.Print();

  // Offline contrast.
  std::vector<double> offline_s;
  for (const auto& gt : tb.ground_truth) {
    offline_s.push_back(gt.offline_seconds);
  }
  std::printf("\noffline TIC (from-scratch CELF++, the computation INFLEX "
              "replaces): avg %.2f s per query — %.0fx slower than INFLEX "
              "on this scaled-down test-bed; the gap grows with graph size "
              "(paper: days vs milliseconds).\n",
              stats::Mean(offline_s), stats::Mean(offline_s) * 1e3 / inflex_ms);
  std::printf("\nPaper shape to match: every index strategy answers in "
              "milliseconds; approxKNN+Sel fastest, exactKNN slowest of the "
              "online methods.\n");
  return 0;
}
