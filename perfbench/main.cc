// Wire-level serving benchmark for INFLEX.
//
// One process builds the world and the index from a fixed seed, serves them
// through net::InflexServer on loopback in the daemon's default shape, and
// drives one workload against it, closed loop, from a single thread:
//
//   fresh-mixtures  every request a distinct mixture (k=50), 1 connection
//                   with 1 request outstanding
//   hot-campaigns   256 campaign mixtures with Zipf popularity (k=10), so
//                   every request after warm-up is a cache hit; 2
//                   connections with 8 requests outstanding each
//
// After the read window a fixed schedule of far-from-index catalog deltas is
// sent as kDelta frames. --seed reaches only the workload generator. Every
// kOk answer is checked against in-process InflexIndex::Query on the
// generation named by its epoch. With --trace 0 the last stdout line carries
// the end-to-end metrics; with --trace 1 the run repeats the workload with
// spans recorded around the library's public calls and reports the
// per-layer metrics instead.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "data/workload.h"
#include "inflex/index_maintainer.h"
#include "inflex/inflex_index.h"
#include "inflex/query_engine.h"
#include "inflex/weighting.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "rank/aggregators.h"
#include "simplex/divergence.h"
#include "simplex/kl_kernel_simd.h"
#include "simplex/sampling.h"
#include "stats/descriptive.h"
#include "util/random.h"
#include "util/thread_pool.h"

using namespace inflex;  // NOLINT

namespace {

// ---------------------------------------------------------------------------
// Fixed shape. The world is the bench test-bed's "small" scale (Z=8, h=256,
// l=50); the server is inflex_serve --listen with its defaults.
// ---------------------------------------------------------------------------

constexpr uint64_t kWorldSeed = 20140324;
constexpr size_t kUsers = 2500;
constexpr size_t kTopics = 8;
constexpr size_t kItems = 3000;
constexpr double kAvgDegree = 12.0;
constexpr size_t kIndexPoints = 256;
constexpr size_t kSeedListLength = 50;
constexpr size_t kDirichletSamples = 30000;
constexpr size_t kBuildSnapshots = 100;
constexpr size_t kTreeLeafSize = 16;

constexpr size_t kIoThreads = 1;
constexpr size_t kWorkers = 4;
constexpr size_t kEnginePoolThreads = 4;
constexpr size_t kCacheCapacity = 4096;
constexpr size_t kCacheShards = 16;
constexpr double kCacheQuantization = 0.01;  // QueryCache default
// Bounds each wait for the server, so a stuck server ends the run.
constexpr double kIoTimeoutMs = 10000.0;

// Set-up is repeated and its median reported, so one slow build does not
// decide the figure.
constexpr size_t kSetupReps = 3;

constexpr size_t kFreshMixtures = 32768;  // 8x the cache: reuse never hits
constexpr size_t kFreshWarmup = 256;
constexpr size_t kCampaigns = 256;
constexpr double kZipfExponent = 1.0;
constexpr double kDeltaMinKl = 0.25;  // 5x the admission threshold
constexpr size_t kProbeDeltas = 32;
constexpr double kProbeIntervalMs = 50.0;
constexpr size_t kTraceSlices = 5;      // per half of a traced window
constexpr size_t kReplayRequests = 2000;
constexpr size_t kRttSamplesPerSecond = 16384;
constexpr size_t kCodecReplay = 4096;
constexpr size_t kClientSpanRequests = 30000;  // keeps the trace file small

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashSeeds(const std::vector<uint32_t>& seeds) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seeds.size();
  for (uint32_t s : seeds) {
    h ^= s;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

uint64_t HashBits(const std::vector<double>& v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double d : v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = Mix(h, bits);
  }
  return h;
}

// 0 for an empty sample (a layer the run did not exercise).
double Quantile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : stats::Percentile(v, q);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : stats::Mean(v);
}

/// Ends the process at once: server and load threads may still be running,
/// so no destructors run.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

/// Sets the CPU affinity of every thread of the process.
void PinProcess(const cpu_set_t& cpus) {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) Die("cannot list the process's threads");
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    if (::sched_setaffinity(std::atoi(e->d_name), sizeof(cpus), &cpus) != 0 &&
        errno != ESRCH) {
      Die("sched_setaffinity failed");
    }
  }
  ::closedir(dir);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out at exit.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  uint32_t parent = 0;  // 1-based id of the parent span, 0 = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Records a span and returns its 1-based id.
  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, parent, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size());
  }
  void SetEnd(uint32_t id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }

  /// Sum over spans named `name` of their duration minus the time their
  /// children cover.
  double SelfNs(const std::string& name) const {
    std::unordered_map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> kids;
    for (const Span& s : spans_) {
      if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
    }
    double total = 0.0;
    for (uint32_t id = 1; id <= spans_.size(); ++id) {
      const Span& s = spans_[id - 1];
      if (name != s.name) continue;
      int64_t covered = 0;
      auto it = kids.find(id);
      if (it != kids.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      }
      total += static_cast<double>(s.end_ns - s.start_ns - covered);
    }
    return total;
  }

  /// Sum over spans named `name` of their duration.
  double TotalNs(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
    }
    return total;
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (uint32_t id = 1; id <= spans_.size(); ++id) {
      const Span& s = spans_[id - 1];
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"request\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   id, s.parent, s.name,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The serving stack, built from the fixed world seed.
// ---------------------------------------------------------------------------

struct Publication {
  uint64_t epoch = 0;
  int64_t t_ns = 0;
  std::shared_ptr<const core::InflexIndex> index;
};

/// Generations captured from IndexMaintainerOptions::on_publish.
class GenerationLog {
 public:
  void Add(uint64_t epoch, std::shared_ptr<const core::InflexIndex> index) {
    const int64_t t = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    pubs_.push_back({epoch, t, std::move(index)});
  }
  std::vector<Publication> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pubs_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Publication> pubs_;
};

struct SetupTimes {
  double world_s = 0.0;
  double build_s = 0.0;
  double start_s = 0.0;
  double total_s = 0.0;
};

/// Members are destroyed in reverse order: the server stops first, then the
/// maintainer drains, and the engine, pool and index outlive both.
struct Stack {
  std::unique_ptr<data::SyntheticDataset> dataset;
  std::shared_ptr<const core::InflexIndex> index;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<core::QueryEngine> engine;
  GenerationLog generations;
  std::unique_ptr<core::IndexMaintainer> maintainer;
  std::unique_ptr<net::InflexServer> server;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect to the server failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("send failed");
    off += static_cast<size_t>(n);
  }
}

std::unique_ptr<Stack> BuildStack(SetupTimes* times) {
  auto s = std::make_unique<Stack>();
  const int64_t t0 = NowNs();
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = kUsers;
  dopts.num_topics = kTopics;
  dopts.num_items = kItems;
  dopts.avg_degree = kAvgDegree;
  dopts.seed = kWorldSeed;
  s->dataset = std::make_unique<data::SyntheticDataset>(
      Must(data::GenerateSyntheticDataset(dopts), "world"));
  const int64_t t1 = NowNs();

  s->pool = std::make_unique<ThreadPool>(kEnginePoolThreads);
  core::InflexBuildOptions bopts;
  bopts.index_points.num_index_points = kIndexPoints;
  bopts.index_points.num_dirichlet_samples = kDirichletSamples;
  bopts.seed_list_length = kSeedListLength;
  bopts.oracle_snapshots = kBuildSnapshots;
  bopts.tree.max_leaf_size = kTreeLeafSize;
  bopts.seed = kWorldSeed + 1;
  bopts.pool = s->pool.get();
  s->index = std::make_shared<const core::InflexIndex>(Must(
      core::InflexIndex::Build(s->dataset->graph, s->dataset->catalog, bopts),
      "index build"));
  const int64_t t2 = NowNs();

  core::QueryEngineOptions eopts;
  eopts.pool = s->pool.get();
  eopts.cache.capacity = kCacheCapacity;
  eopts.cache.num_shards = kCacheShards;
  eopts.cache.quantization = kCacheQuantization;
  s->engine = std::make_unique<core::QueryEngine>(s->index, eopts);

  core::IndexMaintainerOptions mopts;  // default oracle: RIS
  mopts.admission_threshold = 0.05;
  mopts.oracle_snapshots = 30;
  mopts.seed = 107;
  GenerationLog* log = &s->generations;
  mopts.on_publish = [log](uint64_t epoch,
                           std::shared_ptr<const core::InflexIndex> gen) {
    log->Add(epoch, std::move(gen));
  };
  s->maintainer = std::make_unique<core::IndexMaintainer>(
      s->index, &s->dataset->graph, s->engine.get(), mopts);

  net::InflexServerOptions sopts;
  sopts.io_threads = kIoThreads;
  sopts.num_workers = kWorkers;
  sopts.maintainer = s->maintainer.get();
  s->server = std::make_unique<net::InflexServer>(s->engine.get(), sopts);
  if (auto st = s->server->Start(); !st.ok()) Die("server: " + st.ToString());
  net::InflexClient client = Must(
      net::InflexClient::Connect("127.0.0.1", s->server->port(), kIoTimeoutMs),
      "connect");
  if (!Must(client.Ping(), "ping").ok()) Die("ping not answered");
  const int64_t t3 = NowNs();

  times->world_s = (t1 - t0) * 1e-9;
  times->build_s = (t2 - t1) * 1e-9;
  times->start_s = (t3 - t2) * 1e-9;
  times->total_s = (t3 - t0) * 1e-9;
  return s;
}

// ---------------------------------------------------------------------------
// Workload inputs, generated from --seed only.
// ---------------------------------------------------------------------------

enum class Workload { kFresh, kHot };

struct Inputs {
  Workload workload = Workload::kFresh;
  size_t k = 10;
  size_t conns = 1;
  size_t window = 1;  // requests outstanding per connection
  /// Every mixture a request can carry; ids index this table.
  std::vector<simplex::TopicDistribution> mixtures;
  /// Sent once each before timing starts.
  std::vector<uint32_t> warmup;
  /// fresh: the request stream is mixtures[kFreshWarmup + i], wrapping.
  /// hot: Zipf draws over the campaigns (cdf over popularity ranks,
  /// rank -> campaign id permutation).
  std::vector<double> zipf_cdf;
  std::vector<uint32_t> rank_to_campaign;
  /// Far-from-index catalog deltas, sent in order after the read window.
  std::vector<simplex::TopicDistribution> deltas;
};

/// `n` mixtures, alternating one from the Dirichlet fit to the catalog and
/// one uniform, so any prefix carries both halves.
std::vector<simplex::TopicDistribution> MixtureBatch(
    const std::vector<simplex::TopicDistribution>& catalog, size_t n,
    uint64_t seed) {
  data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = (n + 1) / 2;
  wopts.num_uniform = n / 2;
  wopts.seed = seed;
  data::QueryWorkload w =
      Must(data::GenerateQueryWorkload(catalog, wopts), "query workload");
  std::vector<simplex::TopicDistribution> dd, uni;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    (w.is_data_driven[i] ? dd : uni).push_back(std::move(w.queries[i]));
  }
  std::vector<simplex::TopicDistribution> out;
  out.reserve(n);
  for (size_t i = 0; out.size() < n; ++i) {
    if (i < dd.size()) out.push_back(std::move(dd[i]));
    if (i < uni.size() && out.size() < n) out.push_back(std::move(uni[i]));
  }
  return out;
}

std::vector<simplex::TopicDistribution> FarDeltas(
    const core::InflexIndex& index, size_t n, uint64_t seed) {
  std::vector<simplex::TopicVector> points;
  for (uint32_t i = 0; i < index.num_index_points(); ++i) {
    points.push_back(index.index_point(i));
  }
  Rng rng(seed);
  std::vector<simplex::TopicDistribution> out;
  for (size_t tries = 0; out.size() < n; ++tries) {
    if (tries > 1000 * (n + 1)) Die("cannot draw far-from-index deltas");
    simplex::TopicVector c = simplex::SampleUniformSimplex(kTopics, &rng);
    bool far = true;
    for (const auto& p : points) {
      if (simplex::KlDivergence(p, c) <= kDeltaMinKl) {
        far = false;
        break;
      }
    }
    if (!far) continue;
    // Later deltas must also stay clear of earlier ones, which the index
    // will hold by the time they arrive.
    points.push_back(c);
    out.push_back(Must(simplex::TopicDistribution::Create(std::move(c)),
                       "delta mixture"));
  }
  return out;
}

Inputs MakeInputs(Workload w, const Stack& s, uint64_t seed) {
  Inputs in;
  in.workload = w;
  const auto& catalog = s.dataset->catalog;
  if (w == Workload::kFresh) {
    in.k = 50;
    in.mixtures =
        MixtureBatch(catalog, kFreshWarmup + kFreshMixtures, Mix(seed, 1));
    for (uint32_t i = 0; i < kFreshWarmup; ++i) in.warmup.push_back(i);
  } else {
    in.k = 10;
    in.conns = 2;
    in.window = 8;
    in.mixtures = MixtureBatch(catalog, kCampaigns, Mix(seed, 2));
    for (uint32_t i = 0; i < kCampaigns; ++i) in.warmup.push_back(i);
    double acc = 0.0;
    for (size_t r = 0; r < kCampaigns; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      in.zipf_cdf.push_back(acc);
    }
    for (double& c : in.zipf_cdf) c /= acc;
    in.rank_to_campaign.resize(kCampaigns);
    std::iota(in.rank_to_campaign.begin(), in.rank_to_campaign.end(), 0u);
    Rng rng(Mix(seed, 3));
    for (size_t i = kCampaigns - 1; i > 0; --i) {
      std::swap(in.rank_to_campaign[i],
                in.rank_to_campaign[rng.UniformInt(i + 1)]);
    }
  }
  in.deltas = FarDeltas(*s.index, kProbeDeltas, Mix(seed, 4));
  return in;
}

// ---------------------------------------------------------------------------
// Load generator: one thread, poll() over the read connections.
// ---------------------------------------------------------------------------

/// Warm-up reads are untimed; measured and traced reads are timed.
enum class Phase : uint8_t { kWarmup, kMeasured, kTraced };

struct AnswerKey {
  uint32_t input = 0;
  uint64_t epoch = 0;
  uint64_t seeds_hash = 0;
  bool from_cache = false;
  bool operator==(const AnswerKey& o) const {
    return input == o.input && epoch == o.epoch && seeds_hash == o.seeds_hash &&
           from_cache == o.from_cache;
  }
};
struct AnswerKeyHash {
  size_t operator()(const AnswerKey& k) const {
    return Mix(Mix(k.input, k.epoch), k.seeds_hash ^ k.from_cache);
  }
};

/// Traced-phase detail of one answered read.
struct TracedSample {
  double rtt_ms = 0.0;
  double engine_ms = 0.0;
  double queue_ms = 0.0;
  bool from_cache = false;
};

/// Counters of one timed phase. Answered reads are kept per one-second
/// sub-window (by send time) as a count plus a bounded uniform sample of
/// their RTTs, so memory does not grow with throughput.
struct PhaseStats {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t attempts = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t other_status = 0;
  std::vector<uint64_t> bucket_ok;
  std::vector<std::vector<float>> bucket_rtt_ms;

  void Start(int64_t now, int64_t duration_ns) {
    start_ns = now;
    end_ns = now + duration_ns;
    const size_t n = std::max<int64_t>(1, duration_ns / 1000000000);
    bucket_ok.assign(n, 0);
    bucket_rtt_ms.assign(n, {});
  }
  void AddOk(int64_t send_ns, double rtt_ms, Rng* rng) {
    ++ok;
    const size_t n = bucket_ok.size();
    const double frac =
        static_cast<double>(send_ns - start_ns) /
        static_cast<double>(std::max<int64_t>(1, end_ns - start_ns));
    const size_t b = std::min(
        n - 1,
        static_cast<size_t>(std::max(0.0, frac) * static_cast<double>(n)));
    const uint64_t seen = ++bucket_ok[b];
    auto& r = bucket_rtt_ms[b];
    if (r.size() < kRttSamplesPerSecond) {
      r.push_back(static_cast<float>(rtt_ms));
    } else if (const uint64_t j = rng->UniformInt(seen); j < r.size()) {
      r[j] = static_cast<float>(rtt_ms);
    }
  }
  std::vector<double> AllRtts() const {
    std::vector<double> out;
    for (const auto& b : bucket_rtt_ms) {
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  }
};

struct DeltaRecord {
  int64_t scheduled_ns = 0;
  bool ok = false;   // answered kOk over a working transport
  int outcome = -1;  // core::DeltaOutcome, -1 = none
};

/// A traced read kept for the codec replay.
struct KeptRead {
  uint32_t input = 0;
  uint64_t stream_pos = 0;
  net::WireResponse response;
};

class LoadGen {
 public:
  LoadGen(const Inputs& in, Stack* stack, uint64_t seed, bool trace)
      : in_(in),
        stack_(stack),
        trace_(trace),
        rng_(Mix(seed, 5)),
        sample_rng_(Mix(seed, 6)) {
    conns_.resize(in.conns);
    for (Conn& c : conns_) c.fd = ConnectLoopback(stack->server->port());
    // The replayed prefix of the stream is drawn up front, so it does not
    // depend on how many requests the window had time to send.
    for (uint64_t pos = 0; pos < kReplayRequests; ++pos) {
      stream_.push_back(DrawInput(pos));
    }
    stream_epochs_.assign(kReplayRequests, UINT64_MAX);
    deltas_.resize(in.deltas.size());
  }

  ~LoadGen() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Sends every warm-up input once.
  void Warmup() { Pump(Phase::kWarmup, nullptr); }

  /// Closed-loop reads of the request stream for `duration_ns`.
  PhaseStats Run(Phase phase, int64_t duration_ns) {
    PhaseStats st;
    st.Start(NowNs(), duration_ns);
    Pump(phase, &st);
    return st;
  }

  /// Sends the deltas `interval_ms` apart, the first half an interval from
  /// now, as kDelta frames on a connection of their own. The traced run
  /// calls IndexMaintainer::SubmitDelta in-process instead, to time
  /// admission.
  void SendDeltas(double interval_ms) {
    net::InflexClient client;
    if (!trace_) client = Connect();
    const int64_t start = NowNs();
    for (size_t i = 0; i < deltas_.size(); ++i) {
      DeltaRecord& d = deltas_[i];
      d.scheduled_ns =
          start + static_cast<int64_t>((static_cast<double>(i) + 0.5) *
                                       interval_ms * 1e6);
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(d.scheduled_ns - NowNs()));
      const std::string id = "perfbench-" + std::to_string(i);
      if (trace_) {
        const int64_t t0 = NowNs();
        auto receipt = stack_->maintainer->SubmitDelta(
            core::CatalogDelta{id, in_.deltas[i]});
        spans_.Add("inflex.maintainer.submit_delta", 0, i, t0, NowNs());
        if (!receipt.ok()) continue;
        d.ok = true;
        d.outcome = static_cast<int>(receipt.ValueOrDie().outcome);
        continue;
      }
      auto r = client.SubmitDelta(id, in_.deltas[i].probs());
      if (!r.ok()) {  // the client closes its connection after this
        client = Connect();
        continue;
      }
      d.ok = r.ValueOrDie().ok();
      if (r.ValueOrDie().delta_outcome > 0) {
        d.outcome = r.ValueOrDie().delta_outcome - 1;
      }
    }
  }

  const std::unordered_map<AnswerKey, uint64_t, AnswerKeyHash>& answers()
      const {
    return answers_;
  }
  const std::vector<DeltaRecord>& deltas() const { return deltas_; }
  const std::vector<TracedSample>& traced() const { return traced_; }
  const std::vector<KeptRead>& kept() const { return kept_; }
  SpanLog& spans() { return spans_; }
  /// Input id of stream position i (fresh: fixed; hot: the i-th Zipf draw),
  /// for the first kReplayRequests positions.
  const std::vector<uint32_t>& stream() const { return stream_; }
  /// Epoch that answered stream position i (UINT64_MAX = not answered).
  const std::vector<uint64_t>& stream_epochs() const { return stream_epochs_; }

 private:
  net::InflexClient Connect() const {
    return Must(net::InflexClient::Connect("127.0.0.1", stack_->server->port(),
                                           kIoTimeoutMs),
                "connect");
  }

  /// Input of stream position `pos`; called for positions in order.
  uint32_t DrawInput(uint64_t pos) {
    if (in_.workload == Workload::kFresh) {
      return static_cast<uint32_t>(kFreshWarmup + pos % kFreshMixtures);
    }
    const double u = rng_.Uniform();
    const size_t rank = std::min<size_t>(
        std::lower_bound(in_.zipf_cdf.begin(), in_.zipf_cdf.end(), u) -
            in_.zipf_cdf.begin(),
        kCampaigns - 1);
    return in_.rank_to_campaign[rank];
  }

  struct Inflight {
    int64_t send_ns = 0;
    uint32_t input = 0;
    uint64_t stream_pos = UINT64_MAX;  // UINT64_MAX for warm-up reads
  };
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> rbuf;
    std::deque<Inflight> inflight;
  };

  /// Keeps every connection's window full while the phase has requests to
  /// send, then collects the answers still outstanding. `st` is null for
  /// the warm-up.
  void Pump(Phase phase, PhaseStats* st) {
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
      const bool sending = st == nullptr ? next_warmup_ < in_.warmup.size()
                                         : NowNs() < st->end_ns;
      bool busy = false;
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (sending) Refill(&conns_[i], st);
        busy = busy || !conns_[i].inflight.empty();
        pfds[i] = {conns_[i].fd, POLLIN, 0};
      }
      if (!busy) return;
      const int rc = ::poll(pfds.data(), pfds.size(),
                            static_cast<int>(kIoTimeoutMs));
      if (rc == 0) Die("no answer from the server within the I/O timeout");
      if (rc < 0 && errno != EINTR) Die("poll failed");
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (pfds[i].revents != 0) ReadFrom(phase, &conns_[i], st);
      }
    }
  }

  /// Tops the connection up to its window, writing the new frames with one
  /// send. The RTT clock starts before the requests are encoded.
  void Refill(Conn* c, PhaseStats* st) {
    out_.clear();
    const int64_t now = NowNs();
    while (c->inflight.size() < in_.window) {
      Inflight f;
      f.send_ns = now;
      if (st == nullptr) {
        if (next_warmup_ == in_.warmup.size()) break;
        f.input = in_.warmup[next_warmup_++];
      } else {
        f.stream_pos = stream_pos_++;
        f.input = f.stream_pos < stream_.size() ? stream_[f.stream_pos]
                                                : DrawInput(f.stream_pos);
        ++st->attempts;
      }
      core::QueryRequest q;
      q.item = in_.mixtures[f.input];
      q.k = in_.k;
      const std::vector<uint8_t> frame =
          net::EncodeRequestFrame(net::MakeQueryRequest(q));
      out_.insert(out_.end(), frame.begin(), frame.end());
      c->inflight.push_back(f);
    }
    if (!out_.empty()) WriteAll(c->fd, out_);
  }

  /// Reads what the socket holds and records every complete answer.
  void ReadFrom(Phase phase, Conn* c, PhaseStats* st) {
    uint8_t chunk[65536];
    const ssize_t n = ::recv(c->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) Die("server closed a connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      Die("recv failed");
    }
    c->rbuf.insert(c->rbuf.end(), chunk, chunk + n);
    size_t off = 0;
    for (;;) {
      size_t need = 0;
      const std::span<const uint8_t> rest(c->rbuf.data() + off,
                                          c->rbuf.size() - off);
      if (!net::PeekFrame(rest, &need).ok()) Die("malformed response frame");
      if (need == 0 || rest.size() < need) break;
      if (c->inflight.empty()) Die("response without a request");
      const Inflight f = c->inflight.front();
      c->inflight.pop_front();
      auto r = net::DecodeResponsePayload(rest.subspan(
          net::kFrameHeaderBytes, need - net::kFrameHeaderBytes));
      const int64_t done = NowNs();
      if (!r.ok()) Die("undecodable response: " + r.status().ToString());
      Record(phase, f, done, r.ValueOrDie(), st);
      off += need;
    }
    c->rbuf.erase(c->rbuf.begin(),
                  c->rbuf.begin() + static_cast<ptrdiff_t>(off));
  }

  void Record(Phase phase, const Inflight& f, int64_t done,
              const net::WireResponse& resp, PhaseStats* st) {
    if (resp.status != net::WireStatus::kOk) {
      if (st != nullptr) {
        ++(resp.status == net::WireStatus::kOverloaded ? st->overloaded
                                                        : st->other_status);
      }
      return;
    }
    ++answers_[{f.input, resp.epoch, HashSeeds(resp.seeds), resp.from_cache}];
    if (f.stream_pos < stream_epochs_.size()) {
      stream_epochs_[f.stream_pos] = resp.epoch;
    }
    if (st == nullptr) return;
    const double rtt = Ms(done - f.send_ns);
    st->AddOk(f.send_ns, rtt, &sample_rng_);
    if (phase != Phase::kTraced) return;
    traced_.push_back({rtt, resp.engine_ms, resp.queue_ms, resp.from_cache});
    if (client_spans_ < kClientSpanRequests) {
      ++client_spans_;
      spans_.Add("client.request", 0, f.stream_pos, f.send_ns, done);
    }
    if (kept_.size() < kCodecReplay) {
      kept_.push_back({f.input, f.stream_pos, resp});
    }
  }

  const Inputs& in_;
  Stack* stack_;
  bool trace_;
  Rng rng_;         // request stream draws
  Rng sample_rng_;  // RTT reservoir sampling
  std::vector<Conn> conns_;
  std::vector<uint8_t> out_;
  std::vector<DeltaRecord> deltas_;
  size_t next_warmup_ = 0;
  uint64_t stream_pos_ = 0;
  size_t client_spans_ = 0;
  std::vector<uint32_t> stream_;
  std::vector<uint64_t> stream_epochs_;
  std::unordered_map<AnswerKey, uint64_t, AnswerKeyHash> answers_;
  std::vector<TracedSample> traced_;
  std::vector<KeptRead> kept_;
  SpanLog spans_;
};

// ---------------------------------------------------------------------------
// Post-window analysis.
// ---------------------------------------------------------------------------

/// Index generation by epoch: 0 is the built index, the rest were captured
/// from on_publish.
class Generations {
 public:
  explicit Generations(const Stack& s) : pubs_(s.generations.Snapshot()) {
    by_epoch_[0] = s.index;
    for (const auto& p : pubs_) by_epoch_[p.epoch] = p.index;
  }
  const core::InflexIndex* Get(uint64_t epoch) const {
    auto it = by_epoch_.find(epoch);
    return it == by_epoch_.end() ? nullptr : it->second.get();
  }
  const std::vector<Publication>& publications() const { return pubs_; }

 private:
  std::vector<Publication> pubs_;
  std::map<uint64_t, std::shared_ptr<const core::InflexIndex>> by_epoch_;
};

/// The QueryOptions the server derives from the benchmark's wire requests.
core::QueryOptions ServerOptions(const Inputs& in) {
  core::QueryRequest q;
  q.item = in.mixtures[0];
  q.k = in.k;
  return net::MakeQueryRequest(q).ToQueryOptions();
}

struct CheckResult {
  uint64_t answers = 0;
  uint64_t mismatches = 0;
  uint64_t cell_shared = 0;  // cache hits carrying a same-cell answer
};

/// Compares every kOk answer with in-process InflexIndex::Query on the
/// generation named by its epoch. A cache hit may legitimately carry the
/// answer of another mixture in the same quantization cell (QueryCache keys
/// on the cell); such a hit passes when it equals the reference answer of a
/// mixture this run sent into that cell.
CheckResult CheckAnswers(const LoadGen& gen, const Inputs& in,
                         const Generations& gens, ThreadPool* pool) {
  const core::QueryOptions opts = ServerOptions(in);
  std::vector<std::pair<uint32_t, uint64_t>> keys;
  {
    std::unordered_set<uint64_t> seen;
    for (const auto& [k, n] : gen.answers()) {
      if (seen.insert(Mix(k.input, k.epoch)).second) {
        keys.push_back({k.input, k.epoch});
      }
    }
  }
  std::vector<uint64_t> ref(keys.size(), 0);
  auto reference = [&](uint32_t input, uint64_t epoch) -> uint64_t {
    const core::InflexIndex* idx = gens.Get(epoch);
    if (idx == nullptr) return 0;
    auto r = idx->Query(in.mixtures[input], in.k, opts);
    if (!r.ok()) return 0;
    return HashSeeds(r.ValueOrDie().seeds);
  };
  ParallelFor(
      0, keys.size(),
      [&](size_t i) { ref[i] = reference(keys[i].first, keys[i].second); },
      pool);
  std::unordered_map<uint64_t, uint64_t> ref_by_key;
  for (size_t i = 0; i < keys.size(); ++i) {
    ref_by_key[Mix(keys[i].first, keys[i].second)] = ref[i];
  }

  auto cell_of = [&](uint32_t input) {
    uint64_t h = 0;
    for (double p : in.mixtures[input].probs()) {
      h = Mix(h, static_cast<uint64_t>(std::lround(p / kCacheQuantization)));
    }
    return h;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> cells;
  bool cells_built = false;

  CheckResult out;
  for (const auto& [k, n] : gen.answers()) {
    out.answers += n;
    const uint64_t expect = ref_by_key[Mix(k.input, k.epoch)];
    if (expect != 0 && expect == k.seeds_hash) continue;
    bool ok = false;
    if (k.from_cache) {
      if (!cells_built) {
        for (const auto& [k2, n2] : gen.answers()) {
          cells[cell_of(k2.input)].push_back(k2.input);
        }
        cells_built = true;
      }
      for (uint32_t other : cells[cell_of(k.input)]) {
        if (other != k.input && reference(other, k.epoch) == k.seeds_hash) {
          ok = true;
          break;
        }
      }
    }
    if (ok) {
      out.cell_shared += n;
    } else {
      out.mismatches += n;
    }
  }
  return out;
}

struct DeltaResult {
  uint64_t attempts = 0;
  uint64_t failures = 0;
  uint64_t admitted = 0;
  uint64_t published = 0;
  uint64_t covered = 0;
  std::vector<double> publish_ms;
};

/// Matches admitted deltas to the first generation holding their mixture.
DeltaResult AnalyzeDeltas(const LoadGen& gen, const Inputs& in,
                          const Generations& gens,
                          const core::MaintenanceStats& mstats) {
  DeltaResult out;
  std::unordered_map<uint64_t, size_t> pending;  // mixture bits -> delta
  const auto& recs = gen.deltas();
  for (size_t i = 0; i < recs.size(); ++i) {
    const DeltaRecord& d = recs[i];
    ++out.attempts;
    if (!d.ok) {
      ++out.failures;
      continue;
    }
    if (d.outcome == static_cast<int>(core::DeltaOutcome::kCovered)) {
      ++out.covered;
    } else if (d.outcome == static_cast<int>(core::DeltaOutcome::kAdmitted)) {
      ++out.admitted;
      pending[HashBits(in.deltas[i].probs())] = i;
    } else {
      ++out.failures;
    }
  }
  for (const Publication& p : gens.publications()) {
    if (pending.empty()) break;
    for (uint32_t id = 0; id < p.index->num_index_points(); ++id) {
      auto it = pending.find(HashBits(p.index->index_point(id)));
      if (it == pending.end()) continue;
      out.publish_ms.push_back(Ms(p.t_ns - recs[it->second].scheduled_ns));
      ++out.published;
      pending.erase(it);
    }
  }
  // Admitted but never published: correct only when the maintainer reports
  // it superseded by an earlier publication.
  const uint64_t unpublished = out.admitted - out.published;
  out.failures += unpublished > mstats.superseded
                      ? unpublished - mstats.superseded
                      : 0;
  return out;
}

/// `stat(rtt sample, answered count, seconds)` per one-second sub-window.
/// Host interference on a shared machine comes in bursts of seconds; the
/// median over sub-windows keeps a burst that covers a minority of the
/// window from moving the reported figure.
template <typename F>
std::vector<double> PerBucket(const PhaseStats& st, F stat) {
  const double secs = static_cast<double>(st.end_ns - st.start_ns) * 1e-9 /
                      static_cast<double>(st.bucket_ok.size());
  std::vector<double> per;
  for (size_t b = 0; b < st.bucket_ok.size(); ++b) {
    per.push_back(stat(st.bucket_rtt_ms[b], st.bucket_ok[b], secs));
  }
  return per;
}

std::string Join(const std::vector<double>& v, const char* fmt) {
  std::string out;
  char buf[64];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), fmt, x);
    out += out.empty() ? "" : " ";
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced in-process replay: bbtree -> weighting -> rank next to one whole
// InflexIndex::Query per request.
// ---------------------------------------------------------------------------

struct ReplayResult {
  size_t queries = 0;
  size_t mismatches = 0;
  double kl_evals = 0, leaves = 0, lists = 0, union_items = 0;
  double epsilon_exact = 0, retrieved = 0, discarded = 0;
};

ReplayResult Replay(const LoadGen& gen, const Inputs& in,
                    const Generations& gens, SpanLog* spans) {
  const core::QueryOptions opts = ServerOptions(in);
  ReplayResult out;
  bbtree::SearchContext ctx;
  bbtree::InflexSearchOptions sopts = opts.search;
  sopts.max_leaves = opts.max_leaves;
  const auto& stream = gen.stream();
  const auto& epochs = gen.stream_epochs();
  for (size_t pos = 0; pos < stream.size(); ++pos) {
    const uint64_t epoch = epochs[pos] == UINT64_MAX ? 0 : epochs[pos];
    const core::InflexIndex* idx = gens.Get(epoch);
    if (idx == nullptr) Die("replay: unknown generation");
    const simplex::TopicDistribution& item = in.mixtures[stream[pos]];

    std::vector<uint32_t> composed;
    auto compose = [&] {
      const int64_t r0 = NowNs();
      const uint32_t parent = spans->Add("inflex.replay", 0, pos, r0, 0);
      const bbtree::InflexSearchResult search =
          idx->tree().InflexSearch(item.probs(), sopts, &ctx);
      const int64_t r1 = NowNs();
      spans->Add("bbtree.search", parent, pos, r0, r1);
      out.kl_evals += search.stats.kl_evaluations;
      out.leaves += search.stats.leaves_visited;
      if (search.epsilon_exact) {
        const rank::RankedList& list =
            idx->seed_list(search.neighbors[0].point_id);
        composed.assign(list.begin(),
                        list.begin() + std::min(in.k, list.size()));
        spans->SetEnd(parent, NowNs());
        out.epsilon_exact += 1;
        return;
      }
      auto weights = Must(
          core::ComputeImportanceWeights(search.neighbors, opts.weighting),
          "weights");
      const size_t keep =
          opts.weighting.enable_selection
              ? core::SelectNeighborCount(weights, opts.weighting)
              : weights.size();
      weights.resize(keep);
      const int64_t r2 = NowNs();
      spans->Add("inflex.weighting", parent, pos, r1, r2);
      std::vector<rank::RankedList> lists;
      for (size_t i = 0; i < keep; ++i) {
        lists.push_back(idx->seed_list(search.neighbors[i].point_id));
      }
      const int64_t r3 = NowNs();
      composed = Must(
          rank::AggregateRankings(lists, weights, in.k, opts.aggregation),
          "aggregate");
      const int64_t r4 = NowNs();
      spans->Add("rank.aggregate", parent, pos, r3, r4);
      spans->SetEnd(parent, NowNs());
      // Counted outside the timed span.
      out.retrieved += search.neighbors.size();
      out.discarded += search.neighbors.size() - keep;
      out.lists += lists.size();
      std::unordered_set<uint32_t> uni;
      for (const auto& list : lists) uni.insert(list.begin(), list.end());
      out.union_items += uni.size();
    };
    std::vector<uint32_t> whole;
    auto query = [&] {
      const int64_t q0 = NowNs();
      auto r = idx->Query(item, in.k, opts);
      const int64_t q1 = NowNs();
      spans->Add("inflex.index_query", 0, pos, q0, q1);
      if (r.ok()) whole = r.ValueOrDie().seeds;
    };
    // Alternate the order so neither side always runs on warm caches.
    if (pos % 2 == 0) {
      compose();
      query();
    } else {
      query();
      compose();
    }
    if (composed != whole) ++out.mismatches;
    ++out.queries;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !have_seconds ||
      !have_trace) {
    Die("usage: inflex_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--trace-out FILE]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Workload workload;
  if (args.workload == "fresh-mixtures") {
    workload = Workload::kFresh;
  } else if (args.workload == "hot-campaigns") {
    workload = Workload::kHot;
  } else {
    Die("unknown workload " + args.workload);
  }

  std::printf("host: nproc=%u kl_kernel=%s\n",
              std::thread::hardware_concurrency(),
              simplex::ActiveKernelOps().name);
  std::printf("server: io_threads=%zu workers=%zu engine_pool=%zu "
              "cache=%zu entries/%zu shards\n",
              kIoThreads, kWorkers, kEnginePoolThreads, kCacheCapacity,
              kCacheShards);

  // Set-up: built from scratch kSetupReps times; the last stack serves.
  std::vector<SetupTimes> setups(kSetupReps);
  std::unique_ptr<Stack> stack;
  for (size_t r = 0; r < kSetupReps; ++r) {
    stack.reset();
    stack = BuildStack(&setups[r]);
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  const double setup_s = setup_median(&SetupTimes::total_s);
  std::printf("setup: %.3f s median of %zu (world %.3f, index build %.3f, "
              "server start %.3f)\n",
              setup_s, kSetupReps, setup_median(&SetupTimes::world_s),
              setup_median(&SetupTimes::build_s),
              setup_median(&SetupTimes::start_s));

  const Inputs in = MakeInputs(workload, *stack, args.seed);
  std::printf("workload %s: %zu read connection(s) x %zu outstanding, k=%zu, "
              "strategy inflex, %zu deltas every %.0f ms after the window\n",
              args.workload.c_str(), in.conns, in.window, in.k,
              in.deltas.size(), kProbeIntervalMs);

  // Reads run with every thread of the process on one CPU. On a shared
  // virtual machine a wake-up that crosses to an idle vCPU costs from
  // microseconds to milliseconds, depending on the load of the whole host,
  // and a cache hit is mostly such wake-ups. Side by side, cache hits at one
  // request outstanding ran at 6.6k-16k QPS with p99 0.2-2 ms unpinned and
  // at 34k-38k QPS with p99 0.045 ms pinned; unpinned, hot-campaigns
  // switched between about 60k and 20k QPS within single runs.
  cpu_set_t all_cpus, read_cpu;
  if (::sched_getaffinity(0, sizeof(all_cpus), &all_cpus) != 0) {
    Die("sched_getaffinity failed");
  }
  int pinned = CPU_SETSIZE - 1;
  while (pinned > 0 && !CPU_ISSET(pinned, &all_cpus)) --pinned;
  CPU_ZERO(&read_cpu);
  CPU_SET(pinned, &read_cpu);
  std::printf("reads: every thread pinned to cpu %d\n", pinned);
  PinProcess(read_cpu);

  LoadGen gen(in, stack.get(), args.seed, args.trace);
  gen.Warmup();

  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<PhaseStats> timed;
  if (args.trace) {
    // Untraced and traced slices alternate, so drift over the window cancels
    // out of trace.overhead_share.
    for (size_t i = 0; i < 2 * kTraceSlices; ++i) {
      timed.push_back(gen.Run(i % 2 == 0 ? Phase::kMeasured : Phase::kTraced,
                              window_ns / (2 * kTraceSlices)));
    }
  } else {
    timed.push_back(gen.Run(Phase::kMeasured, window_ns));
  }

  // Cache hit path, timed on a quiet server before any probe delta moves
  // the epoch: the second of two identical queries is a hit.
  std::vector<double> probe_us;
  const core::ServingStats engine_stats = stack->engine->cumulative_stats();
  if (args.trace) {
    for (size_t pos = 0; pos < kCampaigns; ++pos) {
      core::QueryRequest q;
      q.item = in.mixtures[gen.stream()[pos]];
      q.k = in.k;
      (void)stack->engine->Query(q);
      const int64_t t0 = NowNs();
      auto r = stack->engine->Query(q);
      const int64_t t1 = NowNs();
      if (r.ok() && r.ValueOrDie().from_cache) {
        gen.spans().Add("inflex.cache.hit", 0, pos, t0, t1);
        probe_us.push_back((t1 - t0) * 1e-3);
      }
    }
  }
  // The delta probe and the answer check use every CPU again.
  PinProcess(all_cpus);
  gen.SendDeltas(kProbeIntervalMs);
  stack->maintainer->Drain();
  const core::MaintenanceStats mstats = stack->maintainer->stats();
  const core::ServingStats final_stats = stack->engine->cumulative_stats();
  stack->server->Stop();
  const net::ServerStats sstats = stack->server->stats();

  const Generations gens(*stack);
  const CheckResult check = CheckAnswers(gen, in, gens, stack->pool.get());
  const DeltaResult deltas = AnalyzeDeltas(gen, in, gens, mstats);

  uint64_t attempts = 0, ok = 0, overloaded = 0, other_status = 0;
  std::vector<double> rtts;
  for (const auto& st : timed) {
    attempts += st.attempts;
    ok += st.ok;
    overloaded += st.overloaded;
    other_status += st.other_status;
    const auto all = st.AllRtts();
    rtts.insert(rtts.end(), all.begin(), all.end());
  }
  // Every mismatch counts against the timed reads, also one found in a
  // warm-up answer.
  const uint64_t bad = std::min<uint64_t>(check.mismatches, ok);
  const uint64_t good = ok - bad;
  const uint64_t query_failed = attempts - good;

  std::printf("reads: %llu attempted, %llu ok, %llu overloaded, %llu other "
              "status\n",
              static_cast<unsigned long long>(attempts),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(overloaded),
              static_cast<unsigned long long>(other_status));
  std::printf("answer check: %llu answers, %llu mismatches, %llu cache hits "
              "served a same-cell answer\n",
              static_cast<unsigned long long>(check.answers),
              static_cast<unsigned long long>(check.mismatches),
              static_cast<unsigned long long>(check.cell_shared));
  std::printf("deltas: %llu sent, %llu admitted, %llu covered, %llu published, "
              "%llu failed | maintainer: %s\n",
              static_cast<unsigned long long>(deltas.attempts),
              static_cast<unsigned long long>(deltas.admitted),
              static_cast<unsigned long long>(deltas.covered),
              static_cast<unsigned long long>(deltas.published),
              static_cast<unsigned long long>(deltas.failures),
              mstats.ToString().c_str());
  std::printf("server: %s\n", sstats.ToString().c_str());

  bool correct = check.mismatches == 0 && !deltas.publish_ms.empty();
  const uint64_t attempted = attempts + deltas.attempts;
  const uint64_t failed = query_failed + deltas.failures;
  std::vector<Metric> metrics;

  if (!args.trace) {
    const PhaseStats& main_phase = timed.front();
    const auto qps = PerBucket(
        main_phase, [](const std::vector<float>&, uint64_t n, double secs) {
          return static_cast<double>(n) / secs;
        });
    auto quantile = [](double q) {
      return [q](const std::vector<float>& b, uint64_t, double) {
        return Quantile(std::vector<double>(b.begin(), b.end()), q);
      };
    };
    const auto p50 = PerBucket(main_phase, quantile(0.5));
    const auto p99 = PerBucket(main_phase, quantile(0.99));
    std::printf("query latency (whole window): p50 %.4f, p90 %.4f, p95 %.4f, "
                "p99 %.4f ms over %zu sampled of %llu answers\n",
                Quantile(rtts, 0.5), Quantile(rtts, 0.9), Quantile(rtts, 0.95),
                Quantile(rtts, 0.99), rtts.size(),
                static_cast<unsigned long long>(ok));
    std::printf("sub-window qps: %s\n", Join(qps, "%.0f").c_str());
    std::printf("sub-window p50: %s\n", Join(p50, "%.3f").c_str());
    std::printf("sub-window p99: %s\n", Join(p99, "%.3f").c_str());
    std::printf("delta publish: %zu samples, p50 %.3f ms\n",
                deltas.publish_ms.size(), Median(deltas.publish_ms));
    metrics = {
        {"setup_s", setup_s, "s"},
        {"query_qps", Median(qps), "1/s"},
        {"query_p50_ms", Median(p50), "ms"},
        {"query_p99_ms", Median(p99), "ms"},
        {"query_ok_share",
         attempts ? static_cast<double>(good) / attempts : 0.0, "share"},
        {"delta_publish_p50_ms", Median(deltas.publish_ms), "ms"},
        {"delta_ok_share",
         deltas.attempts
             ? 1.0 - static_cast<double>(deltas.failures) / deltas.attempts
             : 0.0,
         "share"},
        {"rss_peak_mb", PeakRssMb(), "MB"},
    };
  } else {
    const ReplayResult rp = Replay(gen, in, gens, &gen.spans());
    correct = correct && rp.mismatches == 0 && rp.queries > 0;
    std::printf("decomposition check: %zu replayed, %zu differ from "
                "InflexIndex::Query\n",
                rp.queries, rp.mismatches);

    // The codec, replayed on the traced reads: the client encodes the
    // request and decodes the response, the server decodes the request and
    // encodes the response.
    std::map<std::string, std::vector<double>> codec_us;
    auto codec = [&](const char* name, uint64_t pos, auto&& call) {
      const int64_t t0 = NowNs();
      const bool ok = call();
      const int64_t t1 = NowNs();
      correct = correct && ok;
      gen.spans().Add(name, 0, pos, t0, t1);
      codec_us[name].push_back((t1 - t0) * 1e-3);
    };
    for (const KeptRead& k : gen.kept()) {
      core::QueryRequest q;
      q.item = in.mixtures[k.input];
      q.k = in.k;
      std::vector<uint8_t> request, response;
      codec("net.codec.encode_request", k.stream_pos, [&] {
        request = net::EncodeRequestFrame(net::MakeQueryRequest(q));
        return true;
      });
      codec("net.codec.decode_request", k.stream_pos, [&] {
        return net::DecodeRequestPayload(std::span<const uint8_t>(request)
                                             .subspan(net::kFrameHeaderBytes))
            .ok();
      });
      codec("net.codec.encode_response", k.stream_pos, [&] {
        response = net::EncodeResponseFrame(k.response);
        return true;
      });
      codec("net.codec.decode_response", k.stream_pos, [&] {
        return net::DecodeResponsePayload(std::span<const uint8_t>(response)
                                              .subspan(net::kFrameHeaderBytes))
            .ok();
      });
    }
    double codec_total_us = 0.0;
    for (const auto& [name, v] : codec_us) codec_total_us += Mean(v);

    std::vector<double> engine_ms, queue_ms, wire_ms;
    double hits = 0;
    for (const auto& t : gen.traced()) {
      engine_ms.push_back(t.engine_ms);
      queue_ms.push_back(t.queue_ms);
      wire_ms.push_back(t.rtt_ms - t.queue_ms - t.engine_ms);
      hits += t.from_cache;
    }
    std::vector<double> untraced_rtt, traced_rtt;
    for (size_t i = 0; i < timed.size(); ++i) {
      const auto all = timed[i].AllRtts();
      auto& dst = i % 2 == 0 ? untraced_rtt : traced_rtt;
      dst.insert(dst.end(), all.begin(), all.end());
    }

    const SpanLog& spans = gen.spans();
    const double n = std::max<size_t>(rp.queries, 1);
    const double search_ns = spans.SelfNs("bbtree.search");
    const double weighting_ns = spans.SelfNs("inflex.weighting");
    const double rank_ns = spans.SelfNs("rank.aggregate");
    const double replay_ns = spans.TotalNs("inflex.replay");
    double precompute_ms = 0.0;
    for (const auto& row : final_stats.precompute) {
      if (row.backend == "ris") precompute_ms = row.mean_ns() * 1e-6;
    }
    metrics = {
        {"rank.aggregate_ms", rank_ns / n * 1e-6, "ms"},
        {"rank.lists_per_query", rp.lists / n, "count"},
        {"rank.union_items_per_query", rp.union_items / n, "count"},
        {"inflex.weighting.us", weighting_ns / n * 1e-3, "us"},
        {"inflex.weighting.discard_share",
         rp.retrieved > 0 ? rp.discarded / rp.retrieved : 0.0, "share"},
        {"bbtree.search_us", search_ns / n * 1e-3, "us"},
        {"bbtree.kl_evals_per_query", rp.kl_evals / n, "count"},
        {"bbtree.leaves_per_query", rp.leaves / n, "count"},
        {"bbtree.epsilon_exact_share", rp.epsilon_exact / n, "share"},
        {"inflex.engine.p50_ms", Quantile(engine_ms, 0.5), "ms"},
        {"inflex.engine.p99_ms", Quantile(engine_ms, 0.99), "ms"},
        {"net.queue.p50_ms", Quantile(queue_ms, 0.5), "ms"},
        {"net.queue.p99_ms", Quantile(queue_ms, 0.99), "ms"},
        {"net.wire_ms", Quantile(wire_ms, 0.5), "ms"},
        {"net.codec_us", codec_total_us, "us"},
        {"net.shed_share",
         sstats.requests_received
             ? static_cast<double>(sstats.shed) / sstats.requests_received
             : 0.0,
         "share"},
        {"net.queue_depth_peak", static_cast<double>(sstats.queue_depth_peak),
         "count"},
        {"inflex.cache.hit_share",
         gen.traced().empty() ? 0.0 : hits / gen.traced().size(), "share"},
        {"inflex.cache.probe_us", Median(probe_us), "us"},
        {"inflex.cache.epoch_hit_rate", engine_stats.epoch_hit_rate(), "share"},
        {"inflex.maintainer.admit_us",
         deltas.attempts ? spans.SelfNs("inflex.maintainer.submit_delta") *
                               1e-3 / deltas.attempts
                         : 0.0,
         "us"},
        {"inflex.maintainer.admitted_share",
         mstats.submitted
             ? static_cast<double>(mstats.admitted) / mstats.submitted
             : 0.0,
         "share"},
        {"inflex.maintainer.deltas_per_generation",
         mstats.generations_published
             ? static_cast<double>(mstats.admitted) /
                   mstats.generations_published
             : 0.0,
         "count"},
        {"inflex.maintainer.index_points_end",
         static_cast<double>(mstats.index_points), "count"},
        {"oracle.precompute_ms", precompute_ms, "ms"},
        {"setup.world_s", setup_median(&SetupTimes::world_s), "s"},
        {"setup.index_build_s", setup_median(&SetupTimes::build_s), "s"},
        {"setup.server_start_s", setup_median(&SetupTimes::start_s), "s"},
        // The part of the composed replay that no layer span covers.
        {"trace.unattributed_share",
         replay_ns > 0 ? spans.SelfNs("inflex.replay") / replay_ns : 0.0,
         "share"},
        {"trace.overhead_share",
         Quantile(traced_rtt, 0.5) / Quantile(untraced_rtt, 0.5) - 1.0,
         "share"},
    };
    std::printf("replay: composed %.1f us, InflexIndex::Query %.1f us per "
                "query; codec replayed on %zu traced reads\n",
                replay_ns / n * 1e-3,
                spans.TotalNs("inflex.index_query") / n * 1e-3,
                gen.kept().size());
    if (!args.trace_out.empty() && !gen.spans().WriteJsonl(args.trace_out)) {
      Die("cannot write " + args.trace_out);
    }
  }
  if (!correct) std::printf("RESULT INCORRECT\n");
  PrintResult(correct, attempted, failed, metrics);
  stack.reset();
  return correct ? 0 : 1;
}
