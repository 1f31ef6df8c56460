#ifndef INFLEX_INFLEX_QUERY_CACHE_H_
#define INFLEX_INFLEX_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "inflex/inflex_index.h"
#include "util/timer.h"

namespace inflex {
namespace core {

/// \brief Thread-safe sharded LRU cache of TIM answers keyed by the quantized
/// topic mixture plus a fingerprint of the query options.
///
/// Ad platforms see near-duplicate item descriptions constantly (advertisers
/// iterate on a campaign, re-submission after edits, A/B arms with the same
/// targeting). Queries landing in the same quantization cell reuse the
/// cached ranked list without touching the index, cutting the common-case
/// latency from ~1 ms to ~1 µs.
///
/// The cache key covers k and every answer-shaping field of QueryOptions
/// (strategy, knn_k, max_leaves, search/weighting/aggregation parameters and
/// the segment mask), so one cache can serve heterogeneous traffic. The key
/// additionally carries the caller-supplied index `epoch`: when the serving
/// layer publishes a new index generation it simply queries under the next
/// epoch and every stale entry becomes unreachable — lazy invalidation that
/// never stalls concurrent readers the way an eager Clear() would (stale
/// entries age out through per-shard LRU eviction). Callers that mutate an
/// index in place without an epoch scheme should still Clear().
///
/// Key representation: one streaming pass over the quantized mixture + the
/// options fingerprint produces a 128-bit hash (two independently mixed
/// 64-bit lanes). That hash IS the key — no per-query std::string is
/// allocated, the shard index comes from the high bits and the map bucket
/// from the low bits, so each lookup hashes the query exactly once. A
/// 128-bit accidental collision (~2^-64 per pair) is far below the rate of
/// any other failure mode; inputs are not adversarial here.
///
/// Concurrency: safe for concurrent Query/Clear/size from any number of
/// threads. Entries are striped across `num_shards` independent LRU shards
/// (shard = key hash), each behind its own mutex, so concurrent queries only
/// contend when they land on the same shard; hit/miss counters are striped
/// relaxed atomics (one stripe per cache line) summed at read, so the
/// counters themselves never bounce one cache line between serving threads.
/// On a miss the index query runs outside any lock — two threads missing on
/// the same key may both compute the answer (last writer wins), which is
/// benign because answers are deterministic functions of the key.
class QueryCache {
 public:
  struct Options {
    /// Maximum number of cached answers across all shards (per-shard LRU
    /// eviction beyond capacity/num_shards).
    size_t capacity = 4096;
    /// Grid size per topic coordinate; two mixtures rounding to the same
    /// grid cell share an answer. Figure 4's KL↔Kendall correlation makes
    /// small cells safe: at 0.01 the within-cell divergence is ≪ the
    /// divergence to the nearest index point. 0 keys on exact bytes.
    double quantization = 0.01;
    /// Mutex-striping width. Clamped to [1, capacity]; the default keeps
    /// shard contention negligible for dozens of serving threads. Use 1 for
    /// strict global LRU order (e.g. in eviction tests).
    size_t num_shards = 16;
  };

  /// Default options (NSDMI defaults above).
  QueryCache() : QueryCache(Options{}) {}
  explicit QueryCache(const Options& options);

  /// Cache-through query: returns the cached answer for the cell when
  /// present, otherwise runs index.Query(), caches and returns it.
  /// `QueryResult::total_ms` reflects the actual (cached or computed) cost;
  /// on a hit, `from_cache` is set and the per-stage timings/search stats
  /// are zeroed (those stages did not run for this answer). `epoch` is the
  /// generation of `index` and is folded into the key — pass the epoch
  /// pinned together with the index so an answer computed against one
  /// generation can never serve a query routed to another.
  Result<QueryResult> Query(const InflexIndex& index,
                            const simplex::TopicDistribution& item, size_t k,
                            const QueryOptions& query_options = {},
                            uint64_t epoch = 0);

  /// Hit-only probe: the cached answer for the cell, counted as a hit and
  /// reported like Query() reports a hit; std::nullopt on a miss, which is
  /// neither counted nor computed (the caller serves it through Query(),
  /// which counts it). Lets a front end answer hits without handing them
  /// to a worker.
  std::optional<QueryResult> Lookup(const simplex::TopicDistribution& item,
                                    size_t k,
                                    const QueryOptions& query_options = {},
                                    uint64_t epoch = 0);

  /// Drops every entry (call after mutating the index).
  void Clear();

  /// Total entries across shards (a point-in-time sum under concurrency).
  size_t size() const;
  uint64_t hits() const { return SumStripes(hit_stripes_); }
  uint64_t misses() const { return SumStripes(miss_stripes_); }

  /// One hit/miss pair sampled together.
  struct CounterSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// Samples both counters as a pair: the hit count is re-read until it is
  /// stable across the miss read (bounded retries), so under a quiescent or
  /// slowly-moving cache the pair corresponds to one instant. The counters
  /// are striped relaxed atomics on the serving hot path, so under heavy
  /// concurrent traffic the pair can still straddle a handful of in-flight
  /// requests — callers must treat derived epoch-scoped readouts as
  /// estimates and clamp subtractions (see QueryEngine::cumulative_stats).
  CounterSnapshot counters() const;

  size_t num_shards() const { return shards_.size(); }

  /// Shard index the given query would land on. Test seam: the satellite
  /// regression suite pins shard selection as a stable function of
  /// (item, k, options, epoch) across the single-pass key hash.
  size_t ShardIndexForTesting(const simplex::TopicDistribution& item, size_t k,
                              const QueryOptions& query_options,
                              uint64_t epoch) const;

 private:
  /// 128-bit streaming key hash (see class comment). `lo` doubles as the
  /// unordered_map hash; `hi` exists to push accidental collisions below
  /// any practical concern.
  struct CacheKey {
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool operator==(const CacheKey& other) const {
      return lo == other.lo && hi == other.hi;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      return static_cast<size_t>(k.lo);
    }
  };

  struct Entry {
    CacheKey key;
    QueryResult result;
  };
  /// One mutex-striped LRU segment; keys are assigned by hash.
  struct Shard {
    std::mutex mu;
    // LRU list, most recent at the front; map points into the list.
    std::list<Entry> lru;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        entries;
  };

  /// One relaxed counter per cache line (see class comment).
  struct alignas(64) CounterStripe {
    std::atomic<uint64_t> value{0};
  };
  static constexpr size_t kCounterStripes = 16;
  static void BumpStripe(std::vector<CounterStripe>& stripes);
  static uint64_t SumStripes(const std::vector<CounterStripe>& stripes);

  CacheKey MakeKey(const simplex::TopicDistribution& item, size_t k,
                   const QueryOptions& query_options, uint64_t epoch) const;
  /// The hit half of Query() and Lookup(): counts and returns a hit, or
  /// returns std::nullopt without counting. `timer` started before the key
  /// was hashed, so total_ms covers the whole probe.
  std::optional<QueryResult> FindHit(const CacheKey& key, const Timer& timer);
  Shard& ShardFor(const CacheKey& key) {
    // High bits pick the shard; the map consumes the low bits, so shard and
    // bucket selection stay decorrelated.
    return *shards_[(key.lo >> 48) % shards_.size()];
  }

  Options options_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::vector<CounterStripe> hit_stripes_;
  mutable std::vector<CounterStripe> miss_stripes_;
};

}  // namespace core
}  // namespace inflex

#endif  // INFLEX_INFLEX_QUERY_CACHE_H_
