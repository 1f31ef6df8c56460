#include "inflex/query_engine.h"

#include <algorithm>
#include <cstdio>

#include "stats/descriptive.h"
#include "util/timer.h"

namespace inflex {
namespace core {

double ServingStats::hit_rate() const {
  const uint64_t total = cache_hits + cache_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(cache_hits) /
                          static_cast<double>(total);
}

double ServingStats::epoch_hit_rate() const {
  const uint64_t total = epoch_cache_hits + epoch_cache_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(epoch_cache_hits) /
                          static_cast<double>(total);
}

std::string ServingStats::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%zu req in %.2f ms | %.0f QPS | hit rate %.1f%% | "
                "p50 %.3f ms p95 %.3f ms p99 %.3f ms max %.3f ms | %zu failed"
                " | %llu swaps, epoch hit rate %.1f%%, "
                "admit->publish mean %.1f ms max %.1f ms | "
                "queue %zu (peak %zu), %llu shed, %llu expired",
                num_requests, wall_ms, qps, 100.0 * hit_rate(), p50_ms, p95_ms,
                p99_ms, max_ms, num_failed,
                static_cast<unsigned long long>(generation_swaps),
                100.0 * epoch_hit_rate(), admit_to_publish_mean_ms,
                admit_to_publish_max_ms, admission_queue_depth,
                admission_queue_peak,
                static_cast<unsigned long long>(shed_count),
                static_cast<unsigned long long>(deadline_expired_count));
  std::string out = buf;
  for (const OraclePrecompute& row : precompute) {
    std::snprintf(buf, sizeof(buf),
                  " | precompute[%s] %llu x mean %.2f ms max %.2f ms",
                  row.backend.c_str(),
                  static_cast<unsigned long long>(row.count),
                  row.mean_ns() / 1e6, row.max_ns / 1e6);
    out += buf;
  }
  return out;
}

QueryEngine::QueryEngine(std::shared_ptr<const InflexIndex> index,
                         const QueryEngineOptions& options)
    : options_(options), cache_(options.cache) {
  INFLEX_CHECK(index != nullptr);
  if (options_.enable_hit_accounting) {
    PointHitAccounting::Options hopts;
    hopts.decay = options_.hit_decay;
    hopts.num_stripes = options_.hit_stripes;
    hit_accounting_ = std::make_unique<PointHitAccounting>(
        index->num_index_points(), hopts);
  }
  generation_.store(
      std::make_shared<const Generation>(Generation{std::move(index), 0}),
      std::memory_order_release);
  stats_stripes_.reserve(kStatsStripes);
  for (size_t i = 0; i < kStatsStripes; ++i) {
    auto stripe = std::make_unique<StatsStripe>();
    stripe->reservoir.reserve(kStripeReservoirCapacity);
    stripe->rng.Seed(0x1a7e9c5u + i);
    stats_stripes_.push_back(std::move(stripe));
  }
}

QueryEngine::QueryEngine(const InflexIndex* index,
                         const QueryEngineOptions& options)
    : QueryEngine(std::shared_ptr<const InflexIndex>(
                      std::shared_ptr<const InflexIndex>(), index),
                  options) {}

void QueryEngine::CreditAnswer(const Generation& gen, QueryResult* result) {
  result->generation = gen.epoch;
  if (hit_accounting_ != nullptr) {
    hit_accounting_->Record(gen.epoch, result->neighbors_used);
  }
}

Result<QueryResult> QueryEngine::Query(const QueryRequest& request) {
  // Pin the generation: the shared_ptr copy keeps this index (and the
  // epoch the cache key is derived from) alive and consistent for the whole
  // request, regardless of concurrent PublishIndex calls.
  const std::shared_ptr<const Generation> gen = PinGeneration();
  Result<QueryResult> result =
      options_.enable_cache
          ? cache_.Query(*gen->index, request.item, request.k, request.options,
                         gen->epoch)
          : gen->index->Query(request.item, request.k, request.options);
  if (result.ok()) CreditAnswer(*gen, &result.ValueOrDie());
  return result;
}

std::optional<QueryResult> QueryEngine::LookupCached(
    const QueryRequest& request) {
  if (!options_.enable_cache) return std::nullopt;
  BeginBatchSpan();
  Timer t;
  const std::shared_ptr<const Generation> gen = PinGeneration();
  std::optional<QueryResult> hit =
      cache_.Lookup(request.item, request.k, request.options, gen->epoch);
  if (hit.has_value()) CreditAnswer(*gen, &*hit);
  const double latency_ms = t.ElapsedMillis();
  EndBatchSpan();
  if (!hit.has_value()) return std::nullopt;

  ServingStats one;
  one.num_requests = 1;
  one.num_ok = 1;
  one.cache_hits = 1;
  one.mean_ms = latency_ms;
  one.max_ms = latency_ms;
  FoldStats(one, std::span<const double>(&latency_ms, 1));
  return hit;
}

std::vector<Result<QueryResult>> QueryEngine::QueryBatch(
    std::span<const QueryRequest> requests, ServingStats* stats) {
  const size_t n = requests.size();
  std::vector<Result<QueryResult>> results(n, Status::Internal("not served"));
  std::vector<double> latencies_ms(n, 0.0);

  BeginBatchSpan();
  Timer wall;
  ParallelFor(
      0, n,
      [&](size_t i) {
        Timer t;
        results[i] = Query(requests[i]);
        latencies_ms[i] = t.ElapsedMillis();
      },
      options_.pool);
  const double batch_wall_ms = wall.ElapsedMillis();
  EndBatchSpan();

  ServingStats batch;
  batch.num_requests = n;
  for (const auto& r : results) {
    if (r.ok()) {
      ++batch.num_ok;
      if (r.ValueOrDie().from_cache) ++batch.cache_hits;
    } else {
      ++batch.num_failed;
    }
  }
  // Counted per answer rather than as a delta of the shared cache counters,
  // which concurrent batches and LookupCached hits also move. Every request
  // that was not a hit took the cache's miss path (failures included).
  if (options_.enable_cache) batch.cache_misses = n - batch.cache_hits;
  batch.wall_ms = batch_wall_ms;
  batch.qps = batch.wall_ms > 0.0
                  ? static_cast<double>(n) / (batch.wall_ms / 1e3)
                  : 0.0;
  if (n > 0) {
    batch.mean_ms = stats::Mean(latencies_ms);
    batch.p50_ms = stats::Percentile(latencies_ms, 0.50);
    batch.p95_ms = stats::Percentile(latencies_ms, 0.95);
    batch.p99_ms = stats::Percentile(latencies_ms, 0.99);
    batch.max_ms = *std::max_element(latencies_ms.begin(), latencies_ms.end());
    batch.latency_samples = n;
  }
  if (stats != nullptr) *stats = batch;
  FoldStats(batch, latencies_ms);
  return results;
}

void QueryEngine::FoldStats(const ServingStats& batch,
                            std::span<const double> latencies_ms) {
  // Fold the whole batch into ONE stripe (dealt round-robin): concurrent
  // batchers hit distinct stripe mutexes almost always, so the fold never
  // serializes the serving plane the way a single engine-wide stats lock
  // did. The merged view is recomputed at read (cumulative_stats).
  StatsStripe& stripe = *stats_stripes_[stripe_rr_.fetch_add(
                                            1, std::memory_order_relaxed) %
                                        kStatsStripes];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.num_requests += batch.num_requests;
  stripe.num_ok += batch.num_ok;
  stripe.num_failed += batch.num_failed;
  stripe.cache_hits += batch.cache_hits;
  stripe.cache_misses += batch.cache_misses;
  stripe.latency_total_ms +=
      batch.mean_ms * static_cast<double>(batch.num_requests);
  stripe.latency_max_ms = std::max(stripe.latency_max_ms, batch.max_ms);
  // Algorithm R over this stripe's share of the stream: each of the
  // `seen` observations routed here ends up in the stripe reservoir with
  // equal probability. Round-robin dealing keeps the shares near-equal,
  // so concatenating the stripes at read approximates one uniform
  // reservoir over all requests.
  for (double v : latencies_ms) {
    ++stripe.seen;
    if (stripe.reservoir.size() < kStripeReservoirCapacity) {
      stripe.reservoir.push_back(v);
    } else {
      const uint64_t j = stripe.rng.UniformInt(stripe.seen);
      if (j < kStripeReservoirCapacity) {
        stripe.reservoir[static_cast<size_t>(j)] = v;
      }
    }
  }
}

void QueryEngine::BeginBatchSpan() {
  std::lock_guard<std::mutex> lock(span_mu_);
  if (active_batches_++ == 0) span_timer_.Reset();
}

void QueryEngine::EndBatchSpan() {
  std::lock_guard<std::mutex> lock(span_mu_);
  INFLEX_CHECK_GT(active_batches_, 0u);
  if (--active_batches_ == 0) {
    accumulated_span_ms_ += span_timer_.ElapsedMillis();
  }
}

double QueryEngine::ServingWallMs() const {
  std::lock_guard<std::mutex> lock(span_mu_);
  double wall = accumulated_span_ms_;
  // A busy period is still open: count its elapsed part so qps readouts
  // taken mid-traffic stay finite and current.
  if (active_batches_ > 0) wall += span_timer_.ElapsedMillis();
  return wall;
}

uint64_t QueryEngine::PublishIndex(std::shared_ptr<const InflexIndex> next,
                                   std::span<const uint32_t> old_to_new) {
  INFLEX_CHECK(next != nullptr);
  std::lock_guard<std::mutex> lock(publish_mu_);
  const uint64_t epoch = PinGeneration()->epoch + 1;
  const size_t num_points = next->num_index_points();
  generation_.store(
      std::make_shared<const Generation>(Generation{std::move(next), epoch}),
      std::memory_order_release);
  generation_swaps_.fetch_add(1, std::memory_order_relaxed);
  // Fold the hit tally of the superseded generation into the decayed scores,
  // renumbered through the publisher's remap for eviction publishes.
  if (hit_accounting_ != nullptr) {
    hit_accounting_->Fold(epoch, num_points, old_to_new);
  }
  // Re-baseline the epoch-scoped cache counters: the bumped epoch starts the
  // new generation's warm-up from a cold (all-miss) cache. The pair is
  // sampled together and stored under stats_mu_ so readers never see a
  // hits baseline from this publish paired with a misses baseline from
  // another (lock order publish_mu_ → stats_mu_).
  const QueryCache::CounterSnapshot snap = cache_.counters();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    epoch_hits_base_ = snap.hits;
    epoch_misses_base_ = snap.misses;
  }
  return epoch;
}

void QueryEngine::RecordPublishLatency(double ms) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++publishes_timed_;
  publish_latency_total_ms_ += ms;
  publish_latency_max_ms_ = std::max(publish_latency_max_ms_, ms);
}

void QueryEngine::RecordPrecompute(const std::string& backend, double ns) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (ServingStats::OraclePrecompute& row : precompute_) {
    if (row.backend == backend) {
      ++row.count;
      row.total_ns += ns;
      row.max_ns = std::max(row.max_ns, ns);
      return;
    }
  }
  ServingStats::OraclePrecompute row;
  row.backend = backend;
  row.count = 1;
  row.total_ns = ns;
  row.max_ns = ns;
  precompute_.push_back(std::move(row));
}

std::shared_ptr<const InflexIndex> QueryEngine::index_snapshot() const {
  return PinGeneration()->index;
}

uint64_t QueryEngine::index_epoch() const { return PinGeneration()->epoch; }

std::vector<double> QueryEngine::HitScores() const {
  if (hit_accounting_ == nullptr) return {};
  return hit_accounting_->HitScores();
}

ServingStats QueryEngine::cumulative_stats() const {
  ServingStats out;
  // Merge the stripes: counts and mean/max are exact sums. The percentile
  // estimate merges the per-stripe reservoirs WEIGHTED by each stripe's
  // observed count: a reservoir of |R_i| samples stands in for seen_i
  // observations, so each sample carries weight seen_i / |R_i|. A plain
  // concatenation would give every sample equal weight, letting a
  // lightly-loaded stripe (small seen_i, reservoir not yet thinned) skew
  // the merged p50/p95/p99 toward its own latency regime — round-robin
  // dealing keeps stripe loads near-equal under steady load, but bursty or
  // skewed arrival patterns do not deal evenly.
  std::vector<double> samples;
  std::vector<double> weights;
  samples.reserve(kLatencyReservoirCapacity);
  weights.reserve(kLatencyReservoirCapacity);
  double latency_total_ms = 0.0;
  for (const auto& stripe : stats_stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    out.num_requests += stripe->num_requests;
    out.num_ok += stripe->num_ok;
    out.num_failed += stripe->num_failed;
    out.cache_hits += stripe->cache_hits;
    out.cache_misses += stripe->cache_misses;
    latency_total_ms += stripe->latency_total_ms;
    out.max_ms = std::max(out.max_ms, stripe->latency_max_ms);
    if (!stripe->reservoir.empty()) {
      const double per_sample = static_cast<double>(stripe->seen) /
                                static_cast<double>(stripe->reservoir.size());
      samples.insert(samples.end(), stripe->reservoir.begin(),
                     stripe->reservoir.end());
      weights.insert(weights.end(), stripe->reservoir.size(), per_sample);
    }
  }
  if (out.num_requests > 0) {
    out.mean_ms = latency_total_ms / static_cast<double>(out.num_requests);
  }
  if (!samples.empty()) {
    out.p50_ms = stats::WeightedPercentile(samples, weights, 0.50);
    out.p95_ms = stats::WeightedPercentile(samples, weights, 0.95);
    out.p99_ms = stats::WeightedPercentile(samples, weights, 0.99);
    out.latency_samples = samples.size();
  }
  out.wall_ms = ServingWallMs();
  out.qps = out.wall_ms > 0.0 ? static_cast<double>(out.num_requests) /
                                    (out.wall_ms / 1e3)
                              : 0.0;
  out.generation_swaps = generation_swaps_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  // Epoch-scoped counters: the baseline pair is coherent (stored together
  // under stats_mu_, which we hold); the live pair is sampled together.
  // Queries racing a publish may be attributed to either epoch — the
  // readout is a dashboard estimate, not a ledger — so the subtraction is
  // clamped.
  const QueryCache::CounterSnapshot snap = cache_.counters();
  out.epoch_cache_hits =
      snap.hits >= epoch_hits_base_ ? snap.hits - epoch_hits_base_ : 0;
  out.epoch_cache_misses = snap.misses >= epoch_misses_base_
                               ? snap.misses - epoch_misses_base_
                               : 0;
  out.publishes_timed = publishes_timed_;
  out.admit_to_publish_mean_ms =
      publishes_timed_ > 0
          ? publish_latency_total_ms_ / static_cast<double>(publishes_timed_)
          : 0.0;
  out.admit_to_publish_max_ms = publish_latency_max_ms_;
  out.precompute = precompute_;
  out.admission_queue_depth =
      admission_queue_depth_.load(std::memory_order_relaxed);
  out.admission_queue_peak =
      admission_queue_peak_.load(std::memory_order_relaxed);
  out.shed_count = shed_count_.load(std::memory_order_relaxed);
  out.deadline_expired_count =
      deadline_expired_count_.load(std::memory_order_relaxed);
  return out;
}

void QueryEngine::ReportAdmissionQueue(size_t depth) {
  admission_queue_depth_.store(depth, std::memory_order_relaxed);
  size_t peak = admission_queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak && !admission_queue_peak_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

void QueryEngine::RecordLoadShed(uint64_t count) {
  shed_count_.fetch_add(count, std::memory_order_relaxed);
}

void QueryEngine::RecordDeadlineExpired(uint64_t count) {
  deadline_expired_count_.fetch_add(count, std::memory_order_relaxed);
}

}  // namespace core
}  // namespace inflex
