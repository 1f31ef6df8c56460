#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace inflex {
namespace net {

namespace {

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void RaisePeak(std::atomic<size_t>& peak, size_t value) {
  size_t seen = peak.load(std::memory_order_relaxed);
  while (value > seen && !peak.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

/// The wire form of an answered query (queue_ms is the caller's).
WireResponse AnswerResponse(const core::QueryResult& qr) {
  WireResponse resp;
  resp.status = WireStatus::kOk;
  resp.from_cache = qr.from_cache;
  resp.epsilon_exact = qr.epsilon_exact;
  resp.epoch = qr.generation;
  resp.seeds = qr.seeds;
  resp.similarity_search_ms = qr.similarity_search_ms;
  resp.aggregation_ms = qr.aggregation_ms;
  resp.engine_ms = qr.total_ms;
  return resp;
}

}  // namespace

std::string ServerStats::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "net: %llu conns | %llu req, %llu resp | %llu ok, %llu failed | "
      "%llu shed, %llu expired, %llu draining | %llu deltas (%llu deferred) | "
      "%llu malformed, %llu accept failures | queue %zu (peak %zu) | "
      "write backlog peak %zu B",
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(requests_received),
      static_cast<unsigned long long>(responses_sent),
      static_cast<unsigned long long>(queries_ok),
      static_cast<unsigned long long>(queries_failed),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline_expired),
      static_cast<unsigned long long>(rejected_draining),
      static_cast<unsigned long long>(deltas_submitted),
      static_cast<unsigned long long>(deltas_deferred),
      static_cast<unsigned long long>(malformed),
      static_cast<unsigned long long>(accept_failures), queue_depth,
      queue_depth_peak, write_backlog_peak);
  return std::string(buf);
}

InflexServer::InflexServer(core::QueryEngine* engine,
                           const InflexServerOptions& options)
    : engine_(engine), options_(options) {
  INFLEX_CHECK(engine_ != nullptr);
  if (options_.io_threads == 0) options_.io_threads = 1;
  options_.io_threads = std::min(options_.io_threads, kMaxIoThreads);
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_worker_batch == 0) options_.max_worker_batch = 1;
  if (options_.queue_high_watermark == 0) options_.queue_high_watermark = 1;
  low_watermark_ = options_.queue_low_watermark != 0
                       ? options_.queue_low_watermark
                       : options_.queue_high_watermark / 2;
  if (low_watermark_ >= options_.queue_high_watermark) {
    low_watermark_ = options_.queue_high_watermark - 1;
  }
}

InflexServer::~InflexServer() { Stop(); }

Status InflexServer::OpenListenSocket(uint16_t port, bool reuse_port,
                                      int* out_fd, uint16_t* out_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
    // Must be set before bind on EVERY socket sharing the port, including
    // the first: the kernel only admits a second binder when the first also
    // opted in.
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
      Status s = Status::IOError(std::string("setsockopt(SO_REUSEPORT): ") +
                                 std::strerror(errno));
      ::close(fd);
      return s;
    }
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  std::string host = options_.bind_address;
  if (host == "localhost" || host.empty()) host = "127.0.0.1";
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IOError(std::string("bind ") + host + ": " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) < 0) {
    Status s = Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0) {
    *out_port = ntohs(addr.sin_port);
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  *out_fd = fd;
  return Status::OK();
}

Status InflexServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("InflexServer::Start called twice");
  }

  const size_t num_loops = options_.io_threads;
  const bool reuse_port = num_loops > 1;
  io_loops_.reserve(num_loops);
  auto cleanup = [this] {
    for (auto& loop : io_loops_) {
      if (loop->listen_fd >= 0) ::close(loop->listen_fd);
      if (loop->wake_pipe[0] >= 0) ::close(loop->wake_pipe[0]);
      if (loop->wake_pipe[1] >= 0) ::close(loop->wake_pipe[1]);
    }
    io_loops_.clear();
  };
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<IoLoopState>();
    loop->index = i;
    // Loop 0 resolves the port (possibly ephemeral); the rest bind the same
    // resolved port and the kernel shards accepts across the group.
    const uint16_t bind_port = i == 0 ? options_.port : bound_port_;
    uint16_t resolved_port = 0;
    Status s = OpenListenSocket(bind_port, reuse_port, &loop->listen_fd,
                                &resolved_port);
    if (s.ok() && i == 0) bound_port_ = resolved_port;
    if (!s.ok()) {
      cleanup();
      return s;
    }
    if (::pipe(loop->wake_pipe) != 0) {
      Status ps = Status::IOError(std::string("pipe: ") + std::strerror(errno));
      ::close(loop->listen_fd);
      loop->listen_fd = -1;
      io_loops_.push_back(std::move(loop));
      cleanup();
      return ps;
    }
    for (int end : {0, 1}) {
      Status nb = SetNonBlocking(loop->wake_pipe[end]);
      if (!nb.ok()) {
        io_loops_.push_back(std::move(loop));
        cleanup();
        return nb;
      }
    }
    io_loops_.push_back(std::move(loop));
  }

  running_.store(true, std::memory_order_release);
  for (auto& loop : io_loops_) {
    IoLoopState* raw = loop.get();
    raw->thread = std::thread([this, raw] { IoLoop(raw); });
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void InflexServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!running_.load(std::memory_order_acquire)) return;

  // 1. Stop accepting; new query/delta requests get kShuttingDown.
  draining_.store(true, std::memory_order_release);
  WakeAllLoops();

  // 2. Wait for the admission queue to drain and every worker to go idle —
  // in-flight requests complete with real answers.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_drained_.wait(lock,
                        [this] { return queue_.empty() && busy_workers_ == 0; });
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();

  // 3. Bounded flush: wait for the IO loops to route every completion and
  // push the bytes out to (possibly slow) clients.
  Timer drain_timer;
  while (drain_timer.ElapsedMillis() < options_.drain_timeout_ms &&
         (responses_outstanding_.load(std::memory_order_acquire) > 0 ||
          pending_write_bytes_.load(std::memory_order_acquire) > 0)) {
    WakeAllLoops();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 4. Tear the IO loops down; each closes its sockets on exit.
  io_stop_.store(true, std::memory_order_release);
  WakeAllLoops();
  for (auto& loop : io_loops_) {
    loop->thread.join();
    ::close(loop->wake_pipe[0]);
    ::close(loop->wake_pipe[1]);
    loop->wake_pipe[0] = loop->wake_pipe[1] = -1;
  }

  // 5. Quiesce the maintenance plane last: every delta acknowledged over the
  // wire is published (or superseded) before Stop() returns. In multi-tenant
  // mode every registered tenant's pipeline drains.
  if (options_.router != nullptr) {
    for (const auto& t : options_.router->registry()->List()) t->Drain();
  } else if (options_.maintainer != nullptr) {
    options_.maintainer->Drain();
  }

  running_.store(false, std::memory_order_release);
}

ServerStats InflexServer::stats() const {
  ServerStats out;
  out.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  out.connections_closed =
      counters_.connections_closed.load(std::memory_order_relaxed);
  out.requests_received =
      counters_.requests_received.load(std::memory_order_relaxed);
  out.responses_sent = counters_.responses_sent.load(std::memory_order_relaxed);
  out.queries_ok = counters_.queries_ok.load(std::memory_order_relaxed);
  out.queries_failed = counters_.queries_failed.load(std::memory_order_relaxed);
  out.deltas_submitted =
      counters_.deltas_submitted.load(std::memory_order_relaxed);
  out.shed = counters_.shed.load(std::memory_order_relaxed);
  out.deltas_deferred =
      counters_.deltas_deferred.load(std::memory_order_relaxed);
  out.deadline_expired =
      counters_.deadline_expired.load(std::memory_order_relaxed);
  out.malformed = counters_.malformed.load(std::memory_order_relaxed);
  out.rejected_draining =
      counters_.rejected_draining.load(std::memory_order_relaxed);
  out.accept_failures =
      counters_.accept_failures.load(std::memory_order_relaxed);
  out.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  out.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  out.write_backlog_peak = write_backlog_peak_.load(std::memory_order_relaxed);
  return out;
}

void InflexServer::WakeLoop(IoLoopState* loop) {
  char b = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] ssize_t n = ::write(loop->wake_pipe[1], &b, 1);
}

void InflexServer::WakeAllLoops() {
  for (auto& loop : io_loops_) WakeLoop(loop.get());
}

void InflexServer::PublishQueueDepth(size_t depth) {
  queue_depth_.store(depth, std::memory_order_relaxed);
  RaisePeak(queue_depth_peak_, depth);
  engine_->ReportAdmissionQueue(depth);
}

// ---------------------------------------------------------------------------
// IO loops
// ---------------------------------------------------------------------------

void InflexServer::IoLoop(IoLoopState* loop) {
  using Clock = std::chrono::steady_clock;
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pollfd (0 = not a conn)

  while (!io_stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({loop->wake_pipe[0], POLLIN, 0});
    pfd_conn.push_back(0);
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && loop->listen_fd >= 0) {
      // Close the listen socket the moment draining starts: connects must
      // fail fast instead of completing into the kernel backlog where no
      // one will ever read them.
      ::close(loop->listen_fd);
      loop->listen_fd = -1;
    }
    int timeout_ms = 100;
    bool accepting = !draining;
    if (accepting) {
      const auto backoff_left = loop->accept_resume_at - Clock::now();
      if (backoff_left > Clock::duration::zero()) {
        accepting = false;
        timeout_ms = static_cast<int>(
            std::chrono::ceil<std::chrono::milliseconds>(backoff_left)
                .count());
      }
    }
    if (accepting) {
      pfds.push_back({loop->listen_fd, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : loop->connections) {
      const bool reading = !conn->saw_eof && !conn->read_paused &&
                           UnsentBytes(*conn) < kMaxUnsentBytes;
      short events = reading ? POLLIN : 0;
      if (conn->woff < conn->wbuf.size()) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      pfd_conn.push_back(id);
    }

    ::poll(pfds.data(), pfds.size(), timeout_ms);

    if (pfds[0].revents & POLLIN) {
      char drain[256];
      while (::read(loop->wake_pipe[0], drain, sizeof(drain)) > 0) {
      }
    }

    DrainCompletions(loop);

    size_t idx = 1;
    if (accepting) {
      if (pfds[idx].revents & POLLIN) AcceptNew(loop);
      ++idx;
    }
    for (; idx < pfds.size(); ++idx) {
      uint64_t id = pfd_conn[idx];
      auto it = loop->connections.find(id);
      if (it == loop->connections.end()) continue;
      Connection* conn = it->second.get();
      if (pfds[idx].revents & (POLLERR | POLLNVAL)) conn->broken = true;
      if (!conn->broken && (pfds[idx].revents & (POLLIN | POLLHUP))) {
        ReadFrom(conn);  // POLLHUP still delivers buffered bytes, then EOF
      }
      if (!conn->broken && (pfds[idx].revents & POLLOUT)) {
        FlushConnection(conn);
      }
    }
    // Resume parsing where back-pressure stopped it once the client has
    // read below the cap (no new bytes need arrive), then sweep closures
    // last so no helper above ever holds a dangling pointer.
    std::vector<uint64_t> to_close;
    for (auto& [id, conn] : loop->connections) {
      if (conn->read_paused && !conn->broken &&
          UnsentBytes(*conn) < kMaxUnsentBytes) {
        ParseFrames(conn.get());
      }
      if (conn->broken ||
          (conn->close_after_flush && !conn->read_paused &&
           conn->woff >= conn->wbuf.size() && conn->parked.empty() &&
           conn->next_seq_out == conn->next_seq_in)) {
        to_close.push_back(id);
      }
    }
    for (uint64_t id : to_close) CloseConnection(loop, id);
  }

  // Shutdown: route any last completions, attempt one final flush, close.
  DrainCompletions(loop);
  std::vector<uint64_t> ids;
  ids.reserve(loop->connections.size());
  for (auto& [id, conn] : loop->connections) {
    FlushConnection(conn.get());
    ids.push_back(id);
  }
  for (uint64_t id : ids) CloseConnection(loop, id);
  if (loop->listen_fd >= 0) {
    ::close(loop->listen_fd);
    loop->listen_fd = -1;
  }
}

void InflexServer::AcceptNew(IoLoopState* loop) {
  while (true) {
    int fd = ::accept(loop->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK || err == EINTR) return;
      // The peer gave up before we accepted: its slot is gone, go on.
      if (err == ECONNABORTED) continue;
      // Out of descriptors (EMFILE/ENFILE) or memory: the connection stays
      // in the backlog and keeps the listen socket readable, so polling it
      // again at once would spin. Leave it out of poll for a back-off,
      // with one warning per back-off.
      counters_.accept_failures.fetch_add(1, std::memory_order_relaxed);
      loop->accept_resume_at =
          std::chrono::steady_clock::now() + kAcceptBackoff;
      INFLEX_LOG(Warning) << "accept failed: " << std::strerror(err)
                          << "; not accepting for " << kAcceptBackoff.count()
                          << " ms";
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = (static_cast<uint64_t>(loop->index) << kConnIdLoopShift) |
               loop->next_conn_id++;
    uint64_t id = conn->id;
    loop->connections.emplace(id, std::move(conn));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void InflexServer::CloseConnection(IoLoopState* loop, uint64_t conn_id) {
  auto it = loop->connections.find(conn_id);
  if (it == loop->connections.end()) return;
  Connection* conn = it->second.get();
  // Whatever never made it to the socket is abandoned with the peer.
  size_t unsent = conn->wbuf.size() - conn->woff;
  if (unsent > 0) {
    pending_write_bytes_.fetch_sub(unsent, std::memory_order_acq_rel);
  }
  ::close(conn->fd);
  loop->connections.erase(it);
  counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void InflexServer::ReadFrom(Connection* conn) {
  uint8_t chunk[16 * 1024];
  while (UnsentBytes(*conn) < kMaxUnsentBytes) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->rbuf.insert(conn->rbuf.end(), chunk, chunk + n);
      if (n < static_cast<ssize_t>(sizeof(chunk))) break;
      continue;
    }
    if (n == 0) {  // peer closed its write side; flush and close
      conn->saw_eof = true;
      conn->close_after_flush = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    conn->broken = true;
    return;
  }
  ParseFrames(conn);
}

void InflexServer::ParseFrames(Connection* conn) {
  conn->read_paused = false;
  size_t off = 0;
  while (!conn->poisoned) {
    if (UnsentBytes(*conn) >= kMaxUnsentBytes) {
      // Back-pressure: push what the socket takes; if the client still has
      // not read enough, leave the remaining frames in rbuf until it has.
      FlushConnection(conn);
      if (conn->broken) return;
      if (UnsentBytes(*conn) >= kMaxUnsentBytes) {
        conn->read_paused = true;
        break;
      }
    }
    std::span<const uint8_t> rest(conn->rbuf.data() + off,
                                  conn->rbuf.size() - off);
    size_t frame_bytes = 0;
    Status peek = PeekFrame(rest, &frame_bytes);
    if (!peek.ok()) {
      // Length prefix itself is garbage: the stream cannot be resynced.
      counters_.malformed.fetch_add(1, std::memory_order_relaxed);
      WireResponse resp;
      resp.status = WireStatus::kMalformed;
      resp.message = peek.message();
      RespondNow(conn, conn->next_seq_in++, resp);
      conn->close_after_flush = true;
      conn->poisoned = true;
      break;
    }
    if (frame_bytes == 0 || rest.size() < frame_bytes) break;
    HandleFrame(conn,
                rest.subspan(kFrameHeaderBytes, frame_bytes - kFrameHeaderBytes));
    off += frame_bytes;
  }
  if (conn->poisoned) {
    conn->rbuf.clear();
  } else if (off > 0) {
    conn->rbuf.erase(conn->rbuf.begin(), conn->rbuf.begin() + off);
  }
  FlushConnection(conn);
}

void InflexServer::HandleFrame(Connection* conn,
                               std::span<const uint8_t> payload) {
  const uint64_t seq = conn->next_seq_in++;
  counters_.requests_received.fetch_add(1, std::memory_order_relaxed);

  Result<WireRequest> decoded = DecodeRequestPayload(payload);
  if (!decoded.ok()) {
    counters_.malformed.fetch_add(1, std::memory_order_relaxed);
    WireResponse resp;
    resp.status = WireStatus::kMalformed;
    resp.message = decoded.status().message();
    RespondNow(conn, seq, resp);
    conn->close_after_flush = true;
    conn->poisoned = true;
    return;
  }
  WireRequest request = std::move(decoded).ValueOrDie();

  // Tenant resolution happens before anything request-type specific: every
  // answer (including ping epochs) must come from the tenant's own catalog.
  std::shared_ptr<tenant::Tenant> resolved;
  if (options_.router != nullptr) {
    resolved = options_.router->registry()->Resolve(request.tenant);
    if (resolved == nullptr) {
      WireResponse resp;
      resp.status = WireStatus::kInvalidRequest;
      resp.message = "unknown tenant '" + request.tenant + "'";
      RespondNow(conn, seq, resp);
      return;
    }
  } else if (!request.tenant.empty() &&
             request.tenant != tenant::kDefaultTenantId) {
    // Single-tenant server: serving a named tenant from the only catalog
    // would silently cross catalogs, so reject instead.
    WireResponse resp;
    resp.status = WireStatus::kInvalidRequest;
    resp.message = "server is not multi-tenant (tenant '" + request.tenant +
                   "' requested)";
    RespondNow(conn, seq, resp);
    return;
  }

  if (request.type == MessageType::kPing) {
    WireResponse resp;
    resp.epoch = EngineFor(resolved)->index_epoch();
    RespondNow(conn, seq, resp);
    return;
  }

  if (draining_.load(std::memory_order_acquire)) {
    counters_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
    WireResponse resp;
    resp.status = WireStatus::kShuttingDown;
    resp.message = "server is draining";
    RespondNow(conn, seq, resp);
    return;
  }

  if (request.type == MessageType::kDelta) {
    RespondNow(conn, seq, HandleDelta(request, resolved));
    return;
  }

  // kQuery. Per-tenant budget first: a tenant that burned its token bucket
  // is shed here, before it can occupy a slot in the shared admission queue.
  if (resolved != nullptr &&
      !options_.router->AdmitQuery(resolved.get())) {
    counters_.shed.fetch_add(1, std::memory_order_relaxed);
    WireResponse resp;
    resp.status = WireStatus::kOverloaded;
    resp.retry_after_ms = options_.retry_after_ms;
    resp.epoch = resolved->engine()->index_epoch();
    resp.message = "tenant query budget exhausted";
    RespondNow(conn, seq, resp);
    return;
  }

  WireResponse reject;
  reject.status = WireStatus::kInvalidRequest;
  if (request.k == 0) {
    reject.message = "k must be >= 1";
    RespondNow(conn, seq, reject);
    return;
  }
  Result<simplex::TopicDistribution> item =
      simplex::TopicDistribution::Create(std::move(request.gamma));
  if (!item.ok()) {
    reject.message = "bad query mixture: " + item.status().message();
    RespondNow(conn, seq, reject);
    return;
  }

  PendingRequest pending;
  pending.conn_id = conn->id;
  pending.seq = seq;
  pending.query.item = std::move(item).ValueOrDie();
  pending.query.k = request.k;
  pending.query.options = request.ToQueryOptions();
  core::QueryEngine* pending_engine = EngineFor(resolved);

  // A cached answer is a lookup: serve it here, on the thread that decoded
  // it, instead of paying the queue -> worker -> completion hand-offs. Only
  // misses are admitted to the queue.
  if (std::optional<core::QueryResult> hit =
          pending_engine->LookupCached(pending.query)) {
    counters_.queries_ok.fetch_add(1, std::memory_order_relaxed);
    RespondNow(conn, seq, AnswerResponse(*hit));
    return;
  }

  pending.deadline_ms = request.deadline_ms != 0 ? request.deadline_ms
                                                 : options_.default_deadline_ms;
  pending.tenant = resolved;

  std::vector<Completion> expired;
  const bool admitted = TryAdmit(std::move(pending), &expired);

  // Expired entries drained from the queue front may belong to any
  // connection on ANY loop; route them like worker completions (the owning
  // loop drains them on its next wakeup — including this loop itself).
  if (!expired.empty()) RouteCompletions(std::move(expired));

  if (!admitted) {
    WireResponse resp;
    resp.status = WireStatus::kOverloaded;
    resp.retry_after_ms = options_.retry_after_ms;
    resp.epoch = pending_engine->index_epoch();
    resp.message = "admission queue over high-water mark";
    RespondNow(conn, seq, resp);
  }
}

WireResponse InflexServer::HandleDelta(
    const WireRequest& request,
    const std::shared_ptr<tenant::Tenant>& tenant) {
  WireResponse resp;
  resp.epoch = EngineFor(tenant)->index_epoch();
  core::IndexMaintainer* maintainer =
      tenant != nullptr ? tenant->maintainer() : options_.maintainer;
  if (maintainer == nullptr) {
    resp.status = WireStatus::kInvalidRequest;
    resp.message = tenant != nullptr
                       ? "tenant '" + tenant->id() + "' has no maintenance plane"
                       : "server has no maintenance plane";
    return resp;
  }
  Result<simplex::TopicDistribution> item =
      simplex::TopicDistribution::Create(request.gamma);
  if (!item.ok()) {
    resp.status = WireStatus::kInvalidRequest;
    resp.message = "bad delta mixture: " + item.status().message();
    return resp;
  }
  if (tenant != nullptr) tenant->RecordDeltaRouted();
  core::CatalogDelta delta;
  delta.id = request.delta_id;
  delta.item = std::move(item).ValueOrDie();
  Result<core::DeltaReceipt> receipt = maintainer->SubmitDelta(delta);
  if (!receipt.ok()) {
    resp.status = WireStatus::kInvalidRequest;
    resp.message = receipt.status().message();
    return resp;
  }
  const core::DeltaReceipt& r = receipt.ValueOrDie();
  resp.delta_outcome = static_cast<uint16_t>(r.outcome) + 1;
  if (r.outcome == core::DeltaOutcome::kRetryLater) {
    // The tenant's pending_high_watermark is its bounded delta queue: the
    // bounce degrades only the tenant that filled it.
    resp.status = WireStatus::kOverloaded;
    resp.retry_after_ms = options_.retry_after_ms;
    resp.message = "maintenance plane over high-water mark";
    counters_.deltas_deferred.fetch_add(1, std::memory_order_relaxed);
    if (tenant != nullptr) tenant->RecordDeltaDeferred();
  } else {
    counters_.deltas_submitted.fetch_add(1, std::memory_order_relaxed);
  }
  return resp;
}

void InflexServer::RespondNow(Connection* conn, uint64_t seq,
                              const WireResponse& resp) {
  Park(conn, seq, EncodeResponseFrame(resp));
}

void InflexServer::Park(Connection* conn, uint64_t seq,
                        std::vector<uint8_t> frame) {
  conn->parked_bytes += frame.size();
  conn->parked.emplace(seq, std::move(frame));
}

void InflexServer::FlushConnection(Connection* conn) {
  // Append every response whose turn has come (per-request order).
  while (true) {
    auto it = conn->parked.find(conn->next_seq_out);
    if (it == conn->parked.end()) break;
    conn->wbuf.insert(conn->wbuf.end(), it->second.begin(), it->second.end());
    conn->parked_bytes -= it->second.size();
    pending_write_bytes_.fetch_add(it->second.size(),
                                   std::memory_order_acq_rel);
    conn->parked.erase(it);
    ++conn->next_seq_out;
    counters_.responses_sent.fetch_add(1, std::memory_order_relaxed);
  }
  // Push what the socket will take.
  while (conn->woff < conn->wbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                       conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<size_t>(n);
      pending_write_bytes_.fetch_sub(static_cast<size_t>(n),
                                     std::memory_order_acq_rel);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;  // poll will report POLLOUT
    }
    conn->broken = true;
    return;
  }
  if (conn->woff == conn->wbuf.size() && conn->woff > 0) {
    conn->wbuf.clear();
    conn->woff = 0;
  }
  RaisePeak(write_backlog_peak_, UnsentBytes(*conn));
}

void InflexServer::DrainCompletions(IoLoopState* loop) {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(loop->completions_mu);
    batch.swap(loop->completions);
  }
  if (batch.empty()) return;
  // Park each connection's whole share of the batch, then flush it once.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Completion& a, const Completion& b) {
                     return a.conn_id < b.conn_id;
                   });
  for (size_t i = 0; i < batch.size(); ++i) {
    auto it = loop->connections.find(batch[i].conn_id);
    if (it == loop->connections.end()) continue;
    Connection* conn = it->second.get();
    Park(conn, batch[i].seq, std::move(batch[i].frame));
    if (i + 1 == batch.size() || batch[i + 1].conn_id != batch[i].conn_id) {
      FlushConnection(conn);
    }
  }
  // Only now: Stop() reads zero outstanding plus zero pending write bytes as
  // "everything flushed", and the flushes above fed pending_write_bytes_.
  responses_outstanding_.fetch_sub(batch.size(), std::memory_order_acq_rel);
}

void InflexServer::RouteCompletions(std::vector<Completion> completions) {
  if (completions.empty()) return;
  responses_outstanding_.fetch_add(completions.size(),
                                   std::memory_order_acq_rel);
  // One pass per loop that actually has traffic: the common case (a worker
  // batch from a handful of connections) touches one or two loop queues.
  const size_t num_loops = io_loops_.size();
  for (size_t l = 0; l < num_loops; ++l) {
    bool any = false;
    {
      std::lock_guard<std::mutex> lock(io_loops_[l]->completions_mu);
      for (Completion& c : completions) {
        if (!c.frame.empty() && LoopOf(c.conn_id) == l) {
          io_loops_[l]->completions.push_back(std::move(c));
          c.frame.clear();  // claimed marker
          any = true;
        }
      }
    }
    if (any) WakeLoop(io_loops_[l].get());
  }
  // Completions addressed to an out-of-range loop cannot happen (conn ids
  // are minted from loop indices), but keep the invariant airtight: drop
  // any unclaimed entry and give its outstanding-count back.
  size_t unclaimed = 0;
  for (const Completion& c : completions) {
    if (!c.frame.empty()) ++unclaimed;
  }
  if (unclaimed > 0) {
    responses_outstanding_.fetch_sub(unclaimed, std::memory_order_acq_rel);
  }
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

bool InflexServer::TryAdmit(PendingRequest pending,
                            std::vector<Completion>* expired) {
  core::QueryEngine* pending_engine = EngineFor(pending.tenant);
  uint64_t expired_count = 0;
  bool shed_this = false;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (shedding_ && queue_.size() <= low_watermark_) shedding_ = false;
    if (queue_.size() >= options_.queue_high_watermark) {
      // The front has waited longest: expire it first, shed only if the
      // queue is still saturated with live requests.
      while (queue_.size() >= options_.queue_high_watermark &&
             !queue_.empty() && queue_.front().deadline_ms > 0 &&
             queue_.front().enqueued.ElapsedMillis() >
                 queue_.front().deadline_ms) {
        PendingRequest& dead = queue_.front();
        core::QueryEngine* dead_engine = EngineFor(dead.tenant);
        WireResponse resp;
        resp.status = WireStatus::kDeadlineExceeded;
        resp.epoch = dead_engine->index_epoch();
        resp.queue_ms = dead.enqueued.ElapsedMillis();
        resp.message = "deadline expired in admission queue";
        expired->push_back(
            {dead.conn_id, dead.seq, EncodeResponseFrame(resp)});
        dead_engine->RecordDeadlineExpired(1);
        queue_.pop_front();
        ++expired_count;
      }
      if (queue_.size() >= options_.queue_high_watermark) shedding_ = true;
    }
    if (shedding_) {
      shed_this = true;
    } else {
      queue_.push_back(std::move(pending));
    }
    depth = queue_.size();
  }
  PublishQueueDepth(depth);
  if (expired_count > 0) {
    counters_.deadline_expired.fetch_add(expired_count,
                                         std::memory_order_relaxed);
  }
  if (shed_this) {
    // Attributed to the shedding request's own tenant engine: the global
    // queue protects the shared pool, but the dashboard charge stays local.
    pending_engine->RecordLoadShed(1);
    counters_.shed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  queue_cv_.notify_one();
  return true;
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void InflexServer::WorkerLoop() {
  while (true) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return workers_stop_ || !queue_.empty(); });
      if (workers_stop_ && queue_.empty()) return;
      while (!queue_.empty() && batch.size() < options_.max_worker_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++busy_workers_;
    }
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      depth = queue_.size();
    }
    PublishQueueDepth(depth);
    if (options_.worker_hook) options_.worker_hook();
    ServeBatch(std::move(batch));
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --busy_workers_;
      drained = queue_.empty() && busy_workers_ == 0;
    }
    if (drained) queue_drained_.notify_all();
  }
}

void InflexServer::ServeBatch(std::vector<PendingRequest> batch) {
  // Deadline re-check at pop: entries that expired while queued are answered
  // without touching any engine.
  std::vector<Completion> out;
  out.reserve(batch.size());
  uint64_t expired_count = 0;

  // Group the live requests by tenant engine, preserving arrival order
  // within each group, and run ONE QueryBatch per engine — each tenant's
  // batch fans across the shared pool but folds stats into its own engine.
  // Single-tenant traffic collapses to one group, i.e. the original path.
  struct EngineGroup {
    core::QueryEngine* engine = nullptr;
    std::vector<const PendingRequest*> live;
    std::vector<core::QueryRequest> requests;
    std::vector<double> queue_waits;
  };
  std::vector<EngineGroup> groups;
  for (PendingRequest& p : batch) {
    core::QueryEngine* engine = EngineFor(p.tenant);
    double waited = p.enqueued.ElapsedMillis();
    if (p.deadline_ms > 0 && waited > p.deadline_ms) {
      WireResponse resp;
      resp.status = WireStatus::kDeadlineExceeded;
      resp.epoch = engine->index_epoch();
      resp.queue_ms = waited;
      resp.message = "deadline expired in admission queue";
      out.push_back({p.conn_id, p.seq, EncodeResponseFrame(resp)});
      engine->RecordDeadlineExpired(1);
      ++expired_count;
      continue;
    }
    EngineGroup* group = nullptr;
    for (EngineGroup& g : groups) {
      if (g.engine == engine) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->engine = engine;
    }
    group->live.push_back(&p);
    group->requests.push_back(p.query);  // copy: p owns routing metadata
    group->queue_waits.push_back(waited);
  }
  if (expired_count > 0) {
    counters_.deadline_expired.fetch_add(expired_count,
                                         std::memory_order_relaxed);
  }

  uint64_t ok = 0;
  uint64_t failed = 0;
  for (EngineGroup& group : groups) {
    std::vector<Result<core::QueryResult>> results =
        group.engine->QueryBatch(group.requests);
    for (size_t i = 0; i < results.size(); ++i) {
      WireResponse resp;
      if (results[i].ok()) {
        resp = AnswerResponse(results[i].ValueOrDie());
        ++ok;
      } else {
        resp.status = WireStatus::kQueryFailed;
        resp.epoch = group.engine->index_epoch();
        resp.message = results[i].status().ToString();
        ++failed;
      }
      resp.queue_ms = group.queue_waits[i];
      out.push_back({group.live[i]->conn_id, group.live[i]->seq,
                     EncodeResponseFrame(resp)});
    }
  }
  if (ok > 0) counters_.queries_ok.fetch_add(ok, std::memory_order_relaxed);
  if (failed > 0) {
    counters_.queries_failed.fetch_add(failed, std::memory_order_relaxed);
  }

  RouteCompletions(std::move(out));
}

}  // namespace net
}  // namespace inflex
