#include "inflex/query_cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <type_traits>

#include "util/timer.h"

namespace inflex {
namespace core {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
// Independent second lane: a different odd offset/multiplier pair so the two
// 64-bit halves of the key never cancel the same way.
constexpr uint64_t kLane2Offset = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kLane2Prime = 0xc2b2ae3d27d4eb4fULL;

/// FNV-1a over raw bytes.
uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
uint64_t FnvMixPod(uint64_t h, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return FnvMix(h, &value, sizeof(value));
}

/// Streaming two-lane hash; word-at-a-time so the per-query key costs a few
/// multiplies per topic instead of a heap allocation plus two byte-wise
/// string hashes.
struct KeyHasher {
  uint64_t lo = kFnvOffset;
  uint64_t hi = kLane2Offset;
  void Mix64(uint64_t v) {
    lo = (lo ^ v) * kFnvPrime;
    lo ^= lo >> 29;
    hi = (hi ^ v) * kLane2Prime;
    hi ^= hi >> 31;
  }
};

/// Fingerprints every answer-shaping field of QueryOptions. Two option sets
/// with different fingerprints never share a cache entry — in particular a
/// segment-restricted query can never be answered from an unrestricted one
/// (or from a different segment), and knn_k / max_leaves / search and
/// weighting parameters all key separately.
uint64_t OptionsFingerprint(const QueryOptions& o) {
  uint64_t h = kFnvOffset;
  h = FnvMixPod(h, static_cast<uint32_t>(o.strategy));
  h = FnvMixPod(h, static_cast<uint64_t>(o.knn_k));
  h = FnvMixPod(h, static_cast<uint64_t>(o.max_leaves));
  h = FnvMixPod(h, o.search.epsilon_exact);
  h = FnvMixPod(h, o.search.ad_alpha);
  h = FnvMixPod(h, static_cast<uint64_t>(o.search.max_leaves));
  h = FnvMixPod(h, static_cast<uint8_t>(o.search.use_pruning));
  h = FnvMixPod(h, static_cast<uint8_t>(o.search.use_ad_early_stop));
  h = FnvMixPod(h, static_cast<uint32_t>(o.weighting.function));
  h = FnvMixPod(h, o.weighting.exponential_scale);
  h = FnvMixPod(h, o.weighting.kl_max);
  h = FnvMixPod(h, static_cast<uint8_t>(o.weighting.enable_selection));
  h = FnvMixPod(h, static_cast<uint32_t>(o.weighting.selection_rule));
  h = FnvMixPod(h, o.weighting.selection_threshold);
  h = FnvMixPod(h, o.weighting.selection_ratio);
  h = FnvMixPod(h, static_cast<uint64_t>(o.weighting.min_neighbors));
  h = FnvMixPod(h, static_cast<uint32_t>(o.aggregation.method));
  h = FnvMixPod(h, static_cast<uint8_t>(o.aggregation.use_weights));
  h = FnvMixPod(h, static_cast<uint8_t>(o.aggregation.local_kemenization));
  h = FnvMixPod(h, static_cast<uint64_t>(o.segment_mask.size()));
  if (!o.segment_mask.empty()) {
    h = FnvMix(h, o.segment_mask.data(), o.segment_mask.size());
  }
  return h;
}

/// Stable per-thread stripe index; hashes the thread id once per thread.
size_t ThreadStripe(size_t num_stripes) {
  static thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return stripe % num_stripes;
}

}  // namespace

QueryCache::QueryCache(const Options& options)
    : options_(options),
      hit_stripes_(kCounterStripes),
      miss_stripes_(kCounterStripes) {
  INFLEX_CHECK_GT(options_.capacity, 0u);
  INFLEX_CHECK_GE(options_.quantization, 0.0);
  const size_t num_shards =
      std::clamp<size_t>(options_.num_shards, 1, options_.capacity);
  per_shard_capacity_ = (options_.capacity + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryCache::CacheKey QueryCache::MakeKey(const simplex::TopicDistribution& item,
                                         size_t k,
                                         const QueryOptions& query_options,
                                         uint64_t epoch) const {
  KeyHasher h;
  if (options_.quantization > 0.0) {
    for (double p : item.probs()) {
      h.Mix64(static_cast<uint64_t>(
          static_cast<uint32_t>(std::lround(p / options_.quantization))));
    }
  } else {
    for (double p : item.probs()) {
      uint64_t bits;
      std::memcpy(&bits, &p, sizeof(bits));
      h.Mix64(bits);
    }
  }
  // Topic-count guard: without it, [a, b] and [a, b, 0-cells...] could
  // collide once the zero cells mix to identity-like values.
  h.Mix64(static_cast<uint64_t>(item.num_topics()));
  h.Mix64(static_cast<uint64_t>(k));
  h.Mix64(OptionsFingerprint(query_options));
  h.Mix64(epoch);
  return CacheKey{h.lo, h.hi};
}

size_t QueryCache::ShardIndexForTesting(const simplex::TopicDistribution& item,
                                        size_t k,
                                        const QueryOptions& query_options,
                                        uint64_t epoch) const {
  const CacheKey key = MakeKey(item, k, query_options, epoch);
  return (key.lo >> 48) % shards_.size();
}

void QueryCache::BumpStripe(std::vector<CounterStripe>& stripes) {
  stripes[ThreadStripe(stripes.size())].value.fetch_add(
      1, std::memory_order_relaxed);
}

uint64_t QueryCache::SumStripes(const std::vector<CounterStripe>& stripes) {
  uint64_t total = 0;
  for (const auto& s : stripes) {
    total += s.value.load(std::memory_order_acquire);
  }
  return total;
}

std::optional<QueryResult> QueryCache::FindHit(const CacheKey& key,
                                               const Timer& timer) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return std::nullopt;
  BumpStripe(hit_stripes_);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  QueryResult result = it->second->result;
  // This answer skipped the search/aggregation stages entirely: report
  // zero stage timings and stats rather than the original run's, and
  // flag the hit. Only total_ms reflects this serving's cost.
  result.similarity_search_ms = 0.0;
  result.aggregation_ms = 0.0;
  result.search_stats = bbtree::SearchStats{};
  result.from_cache = true;
  result.total_ms = timer.ElapsedMillis();
  return result;
}

std::optional<QueryResult> QueryCache::Lookup(
    const simplex::TopicDistribution& item, size_t k,
    const QueryOptions& query_options, uint64_t epoch) {
  Timer timer;
  return FindHit(MakeKey(item, k, query_options, epoch), timer);
}

Result<QueryResult> QueryCache::Query(const InflexIndex& index,
                                      const simplex::TopicDistribution& item,
                                      size_t k,
                                      const QueryOptions& query_options,
                                      uint64_t epoch) {
  Timer timer;
  const CacheKey key = MakeKey(item, k, query_options, epoch);
  if (std::optional<QueryResult> hit = FindHit(key, timer)) {
    return std::move(*hit);
  }
  Shard& shard = ShardFor(key);
  // Miss: run the index outside the shard lock so a slow query does not
  // serialize the shard. Concurrent misses on one key may duplicate work;
  // the answers are identical, so whichever insert lands last wins.
  BumpStripe(miss_stripes_);
  INFLEX_ASSIGN_OR_RETURN(QueryResult result,
                          index.Query(item, k, query_options));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      // Another thread computed the same cell while we ran: refresh it.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      it->second->result = result;
    } else {
      shard.lru.push_front(Entry{key, result});
      shard.entries[key] = shard.lru.begin();
      if (shard.entries.size() > per_shard_capacity_) {
        shard.entries.erase(shard.lru.back().key);
        shard.lru.pop_back();
      }
    }
  }
  return result;
}

void QueryCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->entries.clear();
  }
}

size_t QueryCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

QueryCache::CounterSnapshot QueryCache::counters() const {
  uint64_t h = hits();
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t m = misses();
    const uint64_t h2 = hits();
    if (h2 == h) return {h, m};
    h = h2;
  }
  // Counters moving too fast to bracket — return the freshest pair.
  return {h, misses()};
}

}  // namespace core
}  // namespace inflex
