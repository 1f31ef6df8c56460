#ifndef INFLEX_NET_SERVER_H_
#define INFLEX_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "inflex/index_maintainer.h"
#include "inflex/query_engine.h"
#include "net/wire.h"
#include "tenant/tenant_router.h"
#include "util/timer.h"

namespace inflex {
namespace net {

/// \brief Options for an InflexServer.
struct InflexServerOptions {
  /// IPv4 address to bind ("localhost" is accepted as 127.0.0.1).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// IO (poll) loops. 1 keeps the classic single-loop plane; N > 1 opens N
  /// listen sockets on the same port with SO_REUSEPORT, so the kernel shards
  /// incoming connections across loops and each loop owns its connections
  /// exclusively — reads, decodes, and ordered flushes never cross loops.
  /// Clamped to [1, 64].
  size_t io_threads = 1;
  /// Worker threads draining the admission queue into QueryEngine::QueryBatch.
  size_t num_workers = 4;
  /// Upper bound on requests one worker drains into a single QueryBatch call
  /// (the batch then fans across the engine's pool). Larger batches amortize
  /// dispatch under load; 1 serves strictly one request at a time.
  size_t max_worker_batch = 8;
  /// Admission high-water mark: once the queue holds this many requests the
  /// server starts shedding new queries with kOverloaded (after first
  /// draining queue entries whose deadline already expired).
  size_t queue_high_watermark = 1024;
  /// Hysteresis: shedding stops only once the queue drains to this depth
  /// (0 = half the high-water mark). Two levels keep the server from
  /// flapping between admit and shed at the boundary.
  size_t queue_low_watermark = 0;
  /// Retry hint stamped into kOverloaded responses.
  uint32_t retry_after_ms = 50;
  /// Queue-wait budget applied to requests that carry deadline_ms = 0
  /// (0 = no default deadline).
  uint32_t default_deadline_ms = 0;
  /// How long Stop() waits for outbound responses to flush to slow clients
  /// before force-closing their connections.
  double drain_timeout_ms = 5000.0;
  /// Optional maintenance plane: kDelta requests are submitted here (a
  /// kRetryLater receipt maps to kOverloaded on the wire) and Stop() drains
  /// it after the query pipeline. nullptr rejects deltas as kInvalidRequest.
  /// Ignored when `router` is set — each tenant then brings its own
  /// maintainer.
  core::IndexMaintainer* maintainer = nullptr;
  /// Optional multi-tenant front: when set, every request resolves its wire
  /// tenant id through the router's registry (empty id = the default
  /// tenant; unknown ids are kInvalidRequest, never silently cross-catalog)
  /// and is served by THAT tenant's engine/maintainer. Queries additionally
  /// pass the tenant's token bucket before the shared admission queue, so an
  /// over-budget tenant is shed with kOverloaded while everyone else keeps
  /// their latency. The router (and its registry) must outlive the server;
  /// the constructor engine then only backs global queue-depth mirroring and
  /// should be the default tenant's engine. nullptr = classic single-tenant
  /// serving: the constructor engine serves everything, and a request
  /// naming any tenant other than "default" is kInvalidRequest.
  tenant::TenantRouter* router = nullptr;
  /// Test seam: invoked by a worker after popping a batch and before serving
  /// it. The overload and shutdown tests park workers here to make queue
  /// buildup deterministic. Leave empty in production.
  std::function<void()> worker_hook;
};

/// \brief Cumulative counters of the network front end.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t requests_received = 0;
  uint64_t responses_sent = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  uint64_t deltas_submitted = 0;
  /// Queries shed with kOverloaded by admission control.
  uint64_t shed = 0;
  /// Delta submissions deferred by maintenance back-pressure (also answered
  /// kOverloaded).
  uint64_t deltas_deferred = 0;
  /// Requests answered kDeadlineExceeded from the admission queue.
  uint64_t deadline_expired = 0;
  /// Undecodable frames (each also closes its connection).
  uint64_t malformed = 0;
  /// Requests rejected with kShuttingDown during drain.
  uint64_t rejected_draining = 0;
  /// accept() failures other than an empty backlog; out of descriptors
  /// (EMFILE/ENFILE) or any other resource error pauses accepting for a
  /// short back-off, so each back-off adds one.
  uint64_t accept_failures = 0;
  /// Admission-queue depth: current and high-water observed.
  size_t queue_depth = 0;
  size_t queue_depth_peak = 0;
  /// Largest count of response bytes one connection held that its socket
  /// had not yet accepted, as seen after a flush (see kMaxUnsentBytes).
  size_t write_backlog_peak = 0;
  /// One-line operator rendering.
  std::string ToString() const;
};

/// \brief The network serving front end: a TCP server speaking the INFLEX
/// wire protocol (net/wire.h) in front of a QueryEngine, with bounded
/// admission and load shedding.
///
/// Architecture (three planes, no lock shared with the query hot path):
///  - **IO loops**: `io_threads` poll() loops, each owning a disjoint set of
///    connections. With N > 1 loops every loop has its own listen socket on
///    the shared port (SO_REUSEPORT) and the kernel shards accepts across
///    them, so connection IO never takes a cross-loop lock. A connection's
///    id encodes its owning loop; worker completions are routed back to that
///    loop, so the seq-ordered flush logic stays single-threaded per
///    connection exactly as in the one-loop design. Responses to one
///    connection always flush in request order (per-connection sequence
///    numbers reorder worker completions), so pipelined clients stay
///    coherent. A query whose answer is already cached is answered by the
///    loop that decoded it (QueryEngine::LookupCached, queue_ms = 0); only
///    misses go on to the admission queue. A loop sends to each connection
///    once per pass: after all frames of one read, and after routing one
///    batch of completions. A connection holding kMaxUnsentBytes of
///    responses its client has not read is neither read nor parsed until
///    it drains below that.
///  - **Admission queue**: a bounded FIFO between the IO loops and the
///    workers, holding cache misses only. Two watermarks with hysteresis:
///    depth >= high starts shedding (kOverloaded + retry_after_ms, produced
///    by the IO loop without touching a worker), and shedding stops once
///    depth <= low.
///    Before shedding, expired-deadline entries are drained from the front
///    (kDeadlineExceeded) — the oldest waiting request is the one least
///    likely to still have a caller. Workers re-check deadlines at pop.
///  - **Workers**: drain up to max_worker_batch requests per iteration into
///    one QueryEngine::QueryBatch call (reusing the engine's pool fan-out,
///    cache, and ServingStats), then hand encoded responses back to the
///    owning IO loops. Queue depth / shed / expiry counters are mirrored
///    into the engine's ServingStats so the serving dashboard sees overload.
///
/// Server counters are relaxed atomics (assembled into ServerStats at
/// read), so the request path never touches a stats mutex.
///
/// Graceful shutdown (Stop(), also run by the destructor): stop accepting
/// connections, answer new requests kShuttingDown, wait until the admission
/// queue is empty and every worker is idle, flush outbound buffers (bounded
/// by drain_timeout_ms), then join threads, close sockets, and Drain() the
/// attached maintainer. In-flight requests complete with real answers.
class InflexServer {
 public:
  /// The engine must outlive the server. Construction does not open sockets;
  /// call Start().
  InflexServer(core::QueryEngine* engine,
               const InflexServerOptions& options = {});
  ~InflexServer();

  InflexServer(const InflexServer&) = delete;
  InflexServer& operator=(const InflexServer&) = delete;

  /// Binds, listens, and starts the IO + worker threads. Fails on socket
  /// errors (port in use, bad address). Must be called at most once.
  Status Start();

  /// Graceful shutdown; idempotent, thread-safe, and safe to call while
  /// clients are mid-request (they receive their answers first).
  void Stop();

  /// Bound TCP port (resolves port 0 after Start()).
  uint16_t port() const { return bound_port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  /// Back-pressure cap on one connection's unsent response bytes (written
  /// but not yet accepted by the socket, plus responses parked for their
  /// turn). Far above what a client that reads its answers ever holds; a
  /// client that pipelines and never reads stops being read instead of
  /// growing server memory.
  static constexpr size_t kMaxUnsentBytes = 256 * 1024;

 private:
  /// A request admitted to the queue, waiting for a worker. The wire request
  /// is already translated into engine terms (the IO loop validates the
  /// mixture once at decode; workers never re-parse).
  struct PendingRequest {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    core::QueryRequest query;
    /// Started at admission; its elapsed time is the queue wait.
    Timer enqueued;
    /// Queue-wait budget in ms (0 = none).
    uint32_t deadline_ms = 0;
    /// Resolved tenant (nullptr in single-tenant mode). The shared_ptr pins
    /// the tenant across a concurrent DropTenant: a queued request finishes
    /// against the engine it was admitted to.
    std::shared_ptr<tenant::Tenant> tenant;
  };

  /// An encoded response traveling worker -> IO loop.
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::vector<uint8_t> frame;
  };

  /// Per-connection state, owned by exactly one IO loop.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::vector<uint8_t> rbuf;
    /// Bytes queued toward the socket; [woff, size) still unwritten.
    std::vector<uint8_t> wbuf;
    size_t woff = 0;
    /// Next sequence number assigned to an incoming request.
    uint64_t next_seq_in = 0;
    /// Next response sequence to append to wbuf (in-order flush).
    uint64_t next_seq_out = 0;
    /// Responses parked until their turn (worker completions arrive out of
    /// order), and their total size.
    std::map<uint64_t, std::vector<uint8_t>> parked;
    size_t parked_bytes = 0;
    /// Close once every pending response has flushed (set on malformed
    /// frames — the stream is desynchronized beyond repair — and on peer
    /// EOF).
    bool close_after_flush = false;
    /// The peer shut its write side; stop polling for reads.
    bool saw_eof = false;
    /// Parsing stopped at kMaxUnsentBytes; rbuf may still hold complete
    /// frames, parsed once the client has read enough.
    bool read_paused = false;
    /// A malformed frame desynchronized the stream: parse nothing more.
    bool poisoned = false;
    /// Fatal socket error: close at the next IoLoop sweep. Set instead of
    /// closing inline so helpers never invalidate a Connection* their
    /// caller still holds.
    bool broken = false;
  };

  /// One IO loop's world: its listen socket (same port, SO_REUSEPORT), wake
  /// pipe, inbound completion queue, and the connections it exclusively
  /// owns. Connection ids encode the loop index in the top 16 bits, so any
  /// thread can route a Completion home without a registry lookup.
  struct IoLoopState {
    size_t index = 0;
    int listen_fd = -1;
    int wake_pipe[2] = {-1, -1};
    std::thread thread;
    /// Worker -> this loop handoff.
    std::mutex completions_mu;
    std::vector<Completion> completions;
    /// Loop-thread-only state.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections;
    uint64_t next_conn_id = 1;
    /// After a failed accept() the listen socket stays out of poll until
    /// this time (a pending connection would otherwise keep it readable and
    /// the loop would spin on the error).
    std::chrono::steady_clock::time_point accept_resume_at{};
  };
  static constexpr size_t kMaxIoThreads = 64;
  /// How long the listen socket leaves poll after accept() fails for want
  /// of descriptors or memory.
  static constexpr std::chrono::milliseconds kAcceptBackoff{100};
  static constexpr unsigned kConnIdLoopShift = 48;

  static size_t LoopOf(uint64_t conn_id) { return conn_id >> kConnIdLoopShift; }

  void IoLoop(IoLoopState* loop);
  void WorkerLoop();

  /// IO-loop helpers (each call runs on the loop's own thread).
  void AcceptNew(IoLoopState* loop);
  /// Reads what the socket holds (nothing while over kMaxUnsentBytes), then
  /// parses it.
  void ReadFrom(Connection* conn);
  /// Handles every complete frame in rbuf, stopping at kMaxUnsentBytes, and
  /// flushes the connection once.
  void ParseFrames(Connection* conn);
  void HandleFrame(Connection* conn, std::span<const uint8_t> payload);
  void CloseConnection(IoLoopState* loop, uint64_t conn_id);
  /// Parks a loop-generated response (cache hit, shed, malformed, ping,
  /// delta receipt, shutdown) for the ordered flush path; the caller
  /// flushes once per pass.
  void RespondNow(Connection* conn, uint64_t seq, const WireResponse& resp);
  static void Park(Connection* conn, uint64_t seq, std::vector<uint8_t> frame);
  static size_t UnsentBytes(const Connection& conn) {
    return conn.wbuf.size() - conn.woff + conn.parked_bytes;
  }
  /// Appends every in-order parked response to wbuf and writes what the
  /// socket accepts.
  void FlushConnection(Connection* conn);
  void DrainCompletions(IoLoopState* loop);
  /// Hands completions (from any thread) to their owning loops and wakes
  /// them. Bumps responses_outstanding_ per completion; the owning loop
  /// decrements as it routes.
  void RouteCompletions(std::vector<Completion> completions);
  void WakeLoop(IoLoopState* loop);
  void WakeAllLoops();

  /// Opens one non-blocking listen socket on `port` (0 = ephemeral); with
  /// `reuse_port`, peers sharing the port balance accepts in the kernel.
  Status OpenListenSocket(uint16_t port, bool reuse_port, int* out_fd,
                          uint16_t* out_port);

  /// Admission: true when enqueued, false when shed. Queue entries whose
  /// deadline expired while waiting are drained into `expired` (already
  /// encoded as kDeadlineExceeded completions) before the shed decision.
  bool TryAdmit(PendingRequest pending, std::vector<Completion>* expired);
  /// Handles a kDelta request via the maintainer (IO loop; the admission
  /// probe is a microsecond 1-NN lookup). `tenant` is the resolved tenant in
  /// multi-tenant mode, nullptr otherwise (options_.maintainer serves).
  WireResponse HandleDelta(const WireRequest& request,
                           const std::shared_ptr<tenant::Tenant>& tenant);

  /// Worker-side: answers a popped batch through QueryEngine::QueryBatch —
  /// grouped by tenant engine, one batch call per engine — and hands the
  /// encoded responses back to the owning IO loops.
  void ServeBatch(std::vector<PendingRequest> batch);

  /// The engine serving `tenant` (engine_ when tenant is null).
  core::QueryEngine* EngineFor(
      const std::shared_ptr<tenant::Tenant>& tenant) const {
    return tenant != nullptr ? tenant->engine() : engine_;
  }

  void PublishQueueDepth(size_t depth);

  core::QueryEngine* engine_;
  InflexServerOptions options_;
  size_t low_watermark_ = 0;

  std::vector<std::unique_ptr<IoLoopState>> io_loops_;
  uint16_t bound_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  /// Set by Stop(): no new connections, new requests get kShuttingDown.
  std::atomic<bool> draining_{false};
  /// Set by Stop() after the queue drains: IO loops exit.
  std::atomic<bool> io_stop_{false};

  /// Admission queue (IO loops push, workers pop).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;       // wakes workers
  std::condition_variable queue_drained_;  // wakes Stop()
  std::deque<PendingRequest> queue_;
  bool shedding_ = false;        // guarded by queue_mu_
  size_t busy_workers_ = 0;      // guarded by queue_mu_
  bool workers_stop_ = false;    // guarded by queue_mu_

  /// Worker completions pushed but not yet routed by an IO loop; Stop()
  /// waits for this to reach zero before tearing the IO loops down.
  std::atomic<uint64_t> responses_outstanding_{0};
  /// Bytes appended to connection write buffers but not yet accepted by the
  /// sockets (IO loops update; Stop() bounds its flush wait on it).
  std::atomic<size_t> pending_write_bytes_{0};

  std::atomic<size_t> queue_depth_{0};
  std::atomic<size_t> queue_depth_peak_{0};
  std::atomic<size_t> write_backlog_peak_{0};

  /// ServerStats counters as relaxed atomics: bumped on the request path by
  /// IO loops and workers without any shared mutex; stats() assembles a
  /// ServerStats from point-in-time loads.
  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> requests_received{0};
    std::atomic<uint64_t> responses_sent{0};
    std::atomic<uint64_t> queries_ok{0};
    std::atomic<uint64_t> queries_failed{0};
    std::atomic<uint64_t> deltas_submitted{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> deltas_deferred{0};
    std::atomic<uint64_t> deadline_expired{0};
    std::atomic<uint64_t> malformed{0};
    std::atomic<uint64_t> rejected_draining{0};
    std::atomic<uint64_t> accept_failures{0};
  };
  mutable Counters counters_;

  std::vector<std::thread> workers_;
  std::mutex stop_mu_;  // serializes Stop()
};

}  // namespace net
}  // namespace inflex

#endif  // INFLEX_NET_SERVER_H_
