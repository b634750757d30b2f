#include "comm/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace fdml {

namespace {

using Clock = std::chrono::steady_clock;

/// Ceiling on one blocking socket write: a peer that stays unwritable this
/// long is treated as dead (keeps shutdown from hanging on a stalled
/// receiver that never drains its TCP buffer).
constexpr std::chrono::milliseconds kWriteTimeout{10000};
/// Dial backoff cap: connect and reconnect attempts back off exponentially
/// with jitter, never sleeping longer than this between knocks (the overall
/// budgets stay connect_timeout and reconnect_budget).
constexpr std::chrono::milliseconds kDialBackoffMax{2000};

void set_socket_options(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bound every blocking write: a receiver that stops draining its TCP
  // buffer must look like a dead peer, not wedge the writer thread forever.
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(kWriteTimeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((kWriteTimeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

std::uint32_t read_u32_payload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() != 4) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(payload[i]) << (8 * i);
  return v;
}

std::vector<std::uint8_t> u32_payload(std::uint32_t v) {
  std::vector<std::uint8_t> payload(4);
  for (int i = 0; i < 4; ++i) payload[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return payload;
}

/// Jittered exponential backoff draw: uniform in [backoff/2, backoff], so a
/// fleet of peers knocked loose by the same outage does not re-dial in
/// lockstep (the thundering-herd classic).
std::chrono::milliseconds jittered(std::chrono::milliseconds backoff, Rng& rng) {
  const auto half = backoff.count() / 2;
  return std::chrono::milliseconds(
      half + static_cast<long long>(rng.below(
                 static_cast<std::uint64_t>(backoff.count() - half + 1))));
}

}  // namespace

/// The Transport face of a SocketFabric: one per-process mailbox, sends
/// routed over TCP (or locally for self-sends).
class SocketEndpoint final : public Transport {
 public:
  explicit SocketEndpoint(SocketFabric& fabric) : fabric_(fabric) {}

  int rank() const override { return fabric_.rank(); }
  int size() const override { return fabric_.size(); }

  void send(int dest, MessageTag tag, std::vector<std::uint8_t> payload) override {
    if (dest < 0 || dest >= fabric_.size()) {
      throw std::out_of_range("socket transport: bad destination rank");
    }
    fabric_.send_message(dest, tag, std::move(payload));
  }

  std::optional<Message> recv() override { return fabric_.mailbox_.recv(); }

  std::optional<Message> recv_for(std::chrono::milliseconds timeout) override {
    return fabric_.mailbox_.recv_for(timeout);
  }

  bool closed() const override { return fabric_.mailbox_.closed(); }

 private:
  SocketFabric& fabric_;
};

SocketFabric::SocketFabric(SocketOptions options) : options_(std::move(options)) {
  if (options_.size < 2) {
    throw std::invalid_argument("SocketFabric: need >= 2 ranks");
  }
  if (options_.rank < 0 || options_.rank >= options_.size) {
    throw std::invalid_argument("SocketFabric: rank out of range");
  }
  if (options_.port == 0) {
    throw std::invalid_argument("SocketFabric: port required");
  }
  peers_.resize(static_cast<std::size_t>(options_.size));
  for (auto& peer : peers_) peer = std::make_unique<Peer>();
  if (options_.rank == 0) {
    start_hub();
  } else {
    connect_to_hub();
  }
}

SocketFabric::~SocketFabric() { close(); }

std::unique_ptr<Transport> SocketFabric::endpoint() {
  return std::make_unique<SocketEndpoint>(*this);
}

// --- shared plumbing ---

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN here is the SO_SNDTIMEO write timeout: the receiver stopped
    // draining. Everything else (EPIPE, ECONNRESET) is a dead peer.
    return false;
  }
  return true;
}

void SocketFabric::count(std::atomic<std::uint64_t>& counter,
                         const char* registry_name, std::uint64_t n) {
  counter.fetch_add(n, std::memory_order_relaxed);
  obs::MetricsRegistry::process().counter(registry_name).add(n);
}

void SocketFabric::deliver_local(int source, MessageTag tag,
                                 std::vector<std::uint8_t> payload) {
  Message message;
  message.source = source;
  message.tag = tag;
  message.payload = std::move(payload);
  if (!mailbox_.send(std::move(message))) {
    count(frames_dropped_, "socket.frames_dropped");
  }
}

void SocketFabric::send_message(int dest, MessageTag tag,
                                std::vector<std::uint8_t> payload) {
  if (dest == options_.rank) {
    deliver_local(options_.rank, tag, std::move(payload));
    return;
  }
  WireFrame frame;
  frame.kind = FrameKind::kData;
  frame.source = options_.rank;
  frame.dest = dest;
  frame.tag = tag;
  frame.payload = std::move(payload);
  auto bytes = encode_frame(frame);
  // Non-hub ranks have exactly one route: through the hub.
  Peer& route = options_.rank == 0 ? *peers_[static_cast<std::size_t>(dest)]
                                   : *peers_[0];
  if (route.dead.load(std::memory_order_acquire) ||
      !route.outbound.send(std::move(bytes))) {
    count(frames_dropped_, "socket.frames_dropped");
  }
}

void SocketFabric::start_writer(Peer& peer) {
  std::thread writer([this, &peer] { writer_loop(peer); });
  std::unique_lock lock(conn_mutex_);
  if (!closing_.load(std::memory_order_acquire)) {
    peer.writer = std::move(writer);  // close() takes it under this lock
    return;
  }
  // close() is under way and may already have taken the handles. It closes
  // every outbound channel, so this writer drains and exits on its own.
  lock.unlock();
  writer.join();
}

void SocketFabric::writer_loop(Peer& peer) {
  while (auto bytes = peer.outbound.recv()) {
    // Generation before fd: if a reconnect lands between the two loads the
    // write goes to the fresh connection (fine — the welcome already hit the
    // wire before the fd was installed) and a failure report carrying the
    // stale generation is ignored instead of killing the replacement.
    const std::uint64_t generation = peer.generation.load(std::memory_order_acquire);
    const int fd = peer.fd.load(std::memory_order_acquire);
    if (peer.dead.load(std::memory_order_acquire) || fd < 0) {
      count(frames_dropped_, "socket.frames_dropped");
      continue;  // drain and discard: the connection is gone
    }
    if (!write_all(fd, bytes->data(), bytes->size())) {
      mark_peer_dead(peer, generation, "write failed");
      count(frames_dropped_, "socket.frames_dropped");
      continue;
    }
    count(frames_sent_, "socket.frames_sent");
    count(bytes_sent_, "socket.bytes_sent", bytes->size());
  }
}

void SocketFabric::mark_peer_dead(Peer& peer, std::uint64_t generation,
                                  const char* why) {
  {
    std::lock_guard lock(conn_mutex_);
    if (peer.generation.load(std::memory_order_acquire) != generation) {
      return;  // a newer connection owns this route; the report is stale
    }
    if (peer.dead.exchange(true, std::memory_order_acq_rel)) return;
    const int fd = peer.fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    if (peer.announced.load(std::memory_order_acquire) && live_count_ > 0) {
      --live_count_;
    }
  }
  conn_cv_.notify_all();
  // Orderly departures (peers draining off after a shutdown broadcast, or
  // our own close) are not deaths: peer_deaths must mean unexpected loss so
  // the kill-a-worker CI assertion and the obs counters stay meaningful.
  const bool expected = closing_.load(std::memory_order_acquire) ||
                        expecting_departures_.load(std::memory_order_acquire);
  if (!expected) {
    count(peer_deaths_, "socket.peer_deaths");
    obs::instant("socket", "peer_death");
    FDML_WARN("socket") << "rank " << options_.rank << ": peer connection died ("
                        << why << ")";
  }
}

void SocketFabric::retire_fd(int fd) {
  if (fd < 0) return;
  ::shutdown(fd, SHUT_RDWR);
  std::lock_guard lock(conn_mutex_);
  retired_fds_.push_back(fd);
}

// --- hub (rank 0) ---

void SocketFabric::start_hub() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("SocketFabric: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("SocketFabric: bind(port " +
                             std::to_string(options_.port) + ") failed: " + error);
  }
  if (::listen(listen_fd_, options_.size) < 0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("SocketFabric: listen() failed: " + error);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketFabric::accept_loop() {
  obs::set_thread_name("socket-accept");
  while (!closing_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_socket_options(fd);
    obs::instant("socket", "accept");
    std::lock_guard lock(conn_mutex_);
    if (closing_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conn_threads_.emplace_back([this, fd] { hub_connection(fd); });
  }
}

/// Owns one inbound connection: handshake (first frame must announce a
/// valid, unclaimed rank), then route data frames until EOF or a framing
/// error. The fd is shut down on death but only closed at fabric close(),
/// so a racing shutdown can never hit a reused descriptor.
///
/// Two hardenings over the first version:
///   - Slow-loris guard: until the announce completes, reads run against a
///     handshake deadline; a connection that opens TCP and then stalls (or
///     trickles bytes) is timed out and closed instead of holding this
///     thread hostage forever.
///   - Re-admission: an announce for a rank whose previous connection died
///     is accepted as a reconnection (new fd, bumped generation) instead of
///     being rejected as a duplicate — the door a restarted or
///     partition-healed peer walks back in through.
void SocketFabric::hub_connection(int fd) {
  FrameParser parser;
  std::vector<std::uint8_t> buffer(64 * 1024);
  Peer* peer = nullptr;
  std::uint64_t generation = 0;
  const char* why = "eof";
  const auto handshake_deadline = Clock::now() + options_.handshake_timeout;
  for (;;) {
    if (peer == nullptr) {
      const auto now = Clock::now();
      if (now >= handshake_deadline) {
        why = "handshake timeout";
        count(handshake_timeouts_, "socket.handshake_timeouts");
        obs::instant("socket", "handshake_timeout");
        FDML_WARN("socket") << "hub: dropping connection that never finished "
                               "its announce";
        break;
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          handshake_deadline - now);
      const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()) + 1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) {
        why = "read error";
        break;
      }
      if (ready == 0) continue;  // loop re-checks the deadline
    }
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      why = "read error";
      break;
    }
    count(bytes_received_, "socket.bytes_received",
          static_cast<std::uint64_t>(n));
    std::vector<WireFrame> frames;
    if (!parser.feed(buffer.data(), static_cast<std::size_t>(n), frames)) {
      count(frame_errors_, "socket.frame_errors");
      obs::instant("socket", "frame_error");
      FDML_WARN("socket") << "hub: dropping connection with malformed stream ("
                          << wire_error_name(parser.error()) << ")";
      why = "framing error";
      break;
    }
    bool fatal = false;
    for (WireFrame& frame : frames) {
      count(frames_received_, "socket.frames_received");
      if (peer == nullptr) {
        // Handshake: the first frame must claim a rank.
        if (frame.kind != FrameKind::kAnnounce || frame.source < 1 ||
            frame.source >= options_.size ||
            read_u32_payload(frame.payload) !=
                static_cast<std::uint32_t>(options_.size)) {
          FDML_WARN("socket") << "hub: rejecting connection with bad announce";
          why = "bad announce";
          fatal = true;
          break;
        }
        Peer& candidate = *peers_[static_cast<std::size_t>(frame.source)];
        // Claim the rank. A live connection (or one mid-handshake) makes
        // this a duplicate; a dead one makes it a re-admission.
        bool readmission = false;
        {
          std::lock_guard lock(conn_mutex_);
          const bool was_announced =
              candidate.announced.load(std::memory_order_acquire);
          const bool was_dead = candidate.dead.load(std::memory_order_acquire);
          if (candidate.handshaking || (was_announced && !was_dead)) {
            why = "duplicate rank";
            fatal = true;
          } else {
            candidate.handshaking = true;
            readmission = was_announced;
          }
        }
        if (fatal) {
          FDML_WARN("socket") << "hub: duplicate announce for rank "
                              << frame.source;
          break;
        }
        // Welcome must hit the wire before the fd is installed: the writer
        // thread (already running on a re-admission) is the only other
        // producer on this route, and it cannot touch the new fd until the
        // install below flips `dead` — so the welcome is always the
        // connection's first outbound frame.
        WireFrame welcome;
        welcome.kind = FrameKind::kWelcome;
        welcome.source = 0;
        welcome.dest = frame.source;
        welcome.payload = u32_payload(static_cast<std::uint32_t>(options_.size));
        const auto bytes = encode_frame(welcome);
        if (!write_all(fd, bytes.data(), bytes.size())) {
          std::lock_guard lock(conn_mutex_);
          candidate.handshaking = false;
          why = "welcome write failed";
          fatal = true;
          break;
        }
        {
          std::lock_guard lock(conn_mutex_);
          candidate.handshaking = false;
          if (closing_.load(std::memory_order_acquire)) {
            // close() is under way and shuts down only the descriptors
            // installed before it looked; refuse this late arrival.
            why = "fabric closing";
            fatal = true;
          } else {
            const int old = candidate.fd.exchange(fd, std::memory_order_acq_rel);
            if (old >= 0 && old != fd) retired_fds_.push_back(old);
            generation =
                candidate.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
            candidate.announced.store(true, std::memory_order_release);
            candidate.dead.store(false, std::memory_order_release);
            if (!readmission) ++announced_count_;
            ++live_count_;
          }
        }
        if (fatal) break;
        if (!readmission) start_writer(candidate);
        peer = &candidate;
        conn_cv_.notify_all();
        if (readmission) {
          count(readmissions_, "socket.readmissions");
          obs::instant("socket", "readmission", "rank", frame.source);
          FDML_INFO("socket") << "hub: rank " << frame.source
                              << " re-admitted on a fresh connection";
        } else {
          obs::instant("socket", "announce", "rank", frame.source);
          FDML_INFO("socket") << "hub: rank " << frame.source << " joined ("
                              << announced_count_ << "/" << (options_.size - 1)
                              << ")";
        }
        continue;
      }
      if (frame.kind != FrameKind::kData) {
        count(frames_dropped_, "socket.frames_dropped");
        continue;
      }
      route_frame(std::move(frame));
    }
    if (fatal) break;
  }
  if (peer != nullptr) {
    mark_peer_dead(*peer, generation, why);
  } else {
    retire_fd(fd);
  }
}

void SocketFabric::route_frame(WireFrame frame) {
  if (frame.kind != FrameKind::kData || frame.dest < 0 ||
      frame.dest >= options_.size) {
    count(frames_dropped_, "socket.frames_dropped");
    return;
  }
  if (frame.dest == 0) {
    deliver_local(frame.source, frame.tag, std::move(frame.payload));
    return;
  }
  Peer& route = *peers_[static_cast<std::size_t>(frame.dest)];
  auto bytes = encode_frame(frame);
  if (route.dead.load(std::memory_order_acquire) ||
      !route.outbound.send(std::move(bytes))) {
    count(frames_dropped_, "socket.frames_dropped");
  }
}

bool SocketFabric::wait_ready(std::chrono::milliseconds timeout) {
  std::unique_lock lock(conn_mutex_);
  return conn_cv_.wait_for(lock, timeout, [&] {
    return announced_count_ >= options_.size - 1;
  });
}

bool SocketFabric::wait_peers_gone(std::chrono::milliseconds timeout) {
  std::unique_lock lock(conn_mutex_);
  return conn_cv_.wait_for(lock, timeout, [&] { return live_count_ == 0; });
}

std::vector<int> SocketFabric::dead_peers() const {
  std::vector<int> dead;
  for (int r = 0; r < options_.size; ++r) {
    const Peer& peer = *peers_[static_cast<std::size_t>(r)];
    if (peer.announced.load(std::memory_order_acquire) &&
        peer.dead.load(std::memory_order_acquire)) {
      dead.push_back(r);
    }
  }
  return dead;
}

// --- peer (rank != 0) ---

/// Knocking loop with bounded exponential backoff + jitter. The first
/// attempt fires immediately; each miss doubles the sleep from `base` up to
/// kDialBackoffMax, jittered into [sleep/2, sleep] so simultaneously-orphaned
/// peers do not hammer the hub in lockstep. `deadline` is the overall budget
/// (--connect-timeout-ms on the first rendezvous, reconnect_budget later).
int SocketFabric::dial_hub(Clock::time_point deadline,
                           std::chrono::milliseconds base) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_text = std::to_string(options_.port);
  if (::getaddrinfo(options_.host.c_str(), port_text.c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    throw std::runtime_error("SocketFabric: cannot resolve host " +
                             options_.host);
  }
  Rng rng(static_cast<std::uint64_t>(options_.rank) * 0x9e3779b9ULL +
          connect_attempts_.load(std::memory_order_relaxed) + 1);
  std::chrono::milliseconds backoff = std::max(base, std::chrono::milliseconds(1));
  int fd = -1;
  while (!closing_.load(std::memory_order_acquire)) {
    count(connect_attempts_, "socket.connect_attempts");
    obs::instant("socket", "connect_attempt", "rank", options_.rank);
    const int candidate = ::socket(AF_INET, SOCK_STREAM, 0);
    if (candidate >= 0 &&
        ::connect(candidate, resolved->ai_addr, resolved->ai_addrlen) == 0) {
      fd = candidate;
      break;
    }
    if (candidate >= 0) ::close(candidate);
    const auto now = Clock::now();
    if (now >= deadline) break;
    auto sleep = jittered(backoff, rng);
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    if (sleep > remaining) sleep = remaining;
    std::this_thread::sleep_for(sleep);
    backoff = std::min(backoff * 2, kDialBackoffMax);
  }
  ::freeaddrinfo(resolved);
  return fd;
}

/// The announce/welcome rendezvous over a dialed fd. Uses the connection's
/// long-lived parser (peer_parser_): the hub starts flushing queued data
/// frames the moment the welcome is written, so frames that arrive in the
/// same recv() — or a partial one straddling the handoff — must survive
/// into the reader loop. The caller resets the parser first on a
/// reconnect (new connection, new byte stream).
bool SocketFabric::handshake_with_hub(int fd, Clock::time_point deadline) {
  WireFrame announce;
  announce.kind = FrameKind::kAnnounce;
  announce.source = options_.rank;
  announce.dest = 0;
  announce.payload = u32_payload(static_cast<std::uint32_t>(options_.size));
  const auto announce_bytes = encode_frame(announce);
  if (!write_all(fd, announce_bytes.data(), announce_bytes.size())) {
    return false;
  }
  std::vector<std::uint8_t> buffer(4096);
  while (true) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n <= 0) return false;
    count(bytes_received_, "socket.bytes_received",
          static_cast<std::uint64_t>(n));
    std::vector<WireFrame> frames;
    if (!peer_parser_.feed(buffer.data(), static_cast<std::size_t>(n), frames)) {
      return false;
    }
    bool welcomed = false;
    for (WireFrame& frame : frames) {
      if (frame.kind == FrameKind::kWelcome &&
          read_u32_payload(frame.payload) ==
              static_cast<std::uint32_t>(options_.size)) {
        welcomed = true;
        continue;
      }
      // Data already riding behind the welcome: deliver it now, exactly as
      // the reader loop would have.
      count(frames_received_, "socket.frames_received");
      if (frame.kind != FrameKind::kData || frame.dest != options_.rank) {
        count(frames_dropped_, "socket.frames_dropped");
        continue;
      }
      deliver_local(frame.source, frame.tag, std::move(frame.payload));
    }
    if (welcomed) return true;
  }
}

void SocketFabric::connect_to_hub() {
  obs::Span span("socket", "rendezvous", "rank", options_.rank);
  const auto deadline = Clock::now() + options_.connect_timeout;
  Peer& hub = *peers_[0];
  bool reached_hub = false;
  // A TCP connect that succeeds but whose handshake dies (a lossy path, or
  // the hub mid-restart) is retried like a refused connect: the whole
  // rendezvous shares the connect_timeout budget.
  while (Clock::now() < deadline) {
    const int fd = dial_hub(deadline, options_.connect_retry);
    if (fd < 0) break;
    reached_hub = true;
    set_socket_options(fd);
    peer_parser_ = FrameParser{};  // each attempt is a fresh byte stream
    if (!handshake_with_hub(fd, deadline)) {
      ::close(fd);
      continue;
    }
    hub.fd.store(fd, std::memory_order_release);
    hub.generation.fetch_add(1, std::memory_order_acq_rel);
    hub.announced.store(true, std::memory_order_release);
    obs::instant("socket", "connected", "rank", options_.rank);
    start_writer(hub);
    reader_thread_ = std::thread([this] { peer_reader_loop(); });
    return;
  }
  if (!reached_hub) {
    throw std::runtime_error(
        "SocketFabric: rank " + std::to_string(options_.rank) +
        " could not reach hub " + options_.host + ":" +
        std::to_string(options_.port) + " within " +
        std::to_string(options_.connect_timeout.count()) + " ms");
  }
  throw std::runtime_error("SocketFabric: rank " +
                           std::to_string(options_.rank) +
                           " handshake failed (no welcome from hub)");
}

/// Post-outage redial: bounded exponential backoff + jitter within
/// reconnect_budget, then a fresh announce/welcome handshake (the hub
/// re-admits us because our old connection is dead there). On success the
/// new fd is installed under the connection lock with a bumped generation,
/// and the writer thread — which kept draining and discarding while the
/// route was dead — simply resumes.
bool SocketFabric::reconnect_to_hub() {
  Peer& hub = *peers_[0];
  const auto deadline = Clock::now() + options_.reconnect_budget;
  while (!closing_.load(std::memory_order_acquire) && Clock::now() < deadline) {
    const int fd = dial_hub(deadline, options_.reconnect_backoff);
    if (fd < 0) break;
    set_socket_options(fd);
    peer_parser_ = FrameParser{};  // new connection, new byte stream
    if (!handshake_with_hub(fd, deadline)) {
      // The hub may still think our old connection is alive (it has not
      // seen the EOF yet) and reject the re-announce; retire this attempt
      // and keep knocking until the budget runs out.
      retire_fd(fd);
      continue;
    }
    {
      std::lock_guard lock(conn_mutex_);
      const int old = hub.fd.exchange(fd, std::memory_order_acq_rel);
      if (old >= 0 && old != fd) retired_fds_.push_back(old);
      hub.generation.fetch_add(1, std::memory_order_acq_rel);
      hub.dead.store(false, std::memory_order_release);
    }
    count(readmissions_, "socket.readmissions");
    obs::instant("socket", "reconnected", "rank", options_.rank);
    FDML_INFO("socket") << "rank " << options_.rank
                        << ": reconnected to the hub";
    return true;
  }
  return false;
}

void SocketFabric::peer_reader_loop() {
  Peer& hub = *peers_[0];
  std::vector<std::uint8_t> buffer(64 * 1024);
  for (;;) {
    const int fd = hub.fd.load(std::memory_order_acquire);
    const std::uint64_t generation =
        hub.generation.load(std::memory_order_acquire);
    FrameParser& parser = peer_parser_;  // continues the handshake's stream
    const char* why = "eof";
    for (;;) {
      const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        why = "read error";
        break;
      }
      count(bytes_received_, "socket.bytes_received",
            static_cast<std::uint64_t>(n));
      std::vector<WireFrame> frames;
      if (!parser.feed(buffer.data(), static_cast<std::size_t>(n), frames)) {
        count(frame_errors_, "socket.frame_errors");
        why = "framing error";
        break;
      }
      for (WireFrame& frame : frames) {
        count(frames_received_, "socket.frames_received");
        if (frame.kind != FrameKind::kData || frame.dest != options_.rank) {
          count(frames_dropped_, "socket.frames_dropped");
          continue;
        }
        deliver_local(frame.source, frame.tag, std::move(frame.payload));
      }
    }
    mark_peer_dead(hub, generation, why);
    // Reconnect-and-re-admission: bounded backoff within the outage budget.
    // In-flight frames died with the old connection (the health machine's
    // requeue/ping machinery re-covers them); the mailbox stays open so the
    // role loop only sees a silence, not a shutdown.
    if (closing_.load(std::memory_order_acquire) || !options_.reconnect) break;
    if (!reconnect_to_hub()) break;
  }
  // The hub is gone for good (or we are closing): the fabric is over for
  // this process. Closing the mailbox is what surfaces it — recv() returns
  // nullopt and the role loop unwinds.
  mailbox_.close();
}

// --- teardown ---

void SocketFabric::close() {
  {
    std::lock_guard lock(close_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  closing_.store(true, std::memory_order_release);

  // Flush first: closing an outbound channel lets its writer drain every
  // queued frame (a worker's final telemetry frame, the foreman's last
  // round report)
  // before the socket goes away.
  for (auto& peer : peers_) {
    if (peer) peer->outbound.close();
  }
  // A hub connection thread may be installing a writer right now; handles
  // are assigned and taken only under conn_mutex_ (see start_writer).
  std::vector<std::thread> writers;
  {
    std::lock_guard lock(conn_mutex_);
    for (auto& peer : peers_) {
      if (peer && peer->writer.joinable()) {
        writers.push_back(std::move(peer->writer));
      }
    }
  }
  for (auto& writer : writers) writer.join();

  if (options_.rank == 0) {
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& peer : peers_) {
      const int fd = peer ? peer->fd.load(std::memory_order_acquire) : -1;
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> conns;
    {
      std::lock_guard lock(conn_mutex_);
      conns.swap(conn_threads_);
    }
    for (auto& thread : conns) {
      if (thread.joinable()) thread.join();
    }
    for (auto& peer : peers_) {
      const int fd = peer ? peer->fd.exchange(-1, std::memory_order_acq_rel) : -1;
      if (fd >= 0) ::close(fd);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  } else {
    const int fd = peers_[0]->fd.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    if (reader_thread_.joinable()) reader_thread_.join();
    const int closing_fd = peers_[0]->fd.exchange(-1, std::memory_order_acq_rel);
    if (closing_fd >= 0) ::close(closing_fd);
  }
  // Every thread that could have been blocked on a retired descriptor has
  // joined by now; the parked fds can finally be returned to the kernel.
  std::vector<int> retired;
  {
    std::lock_guard lock(conn_mutex_);
    retired.swap(retired_fds_);
  }
  for (const int fd : retired) ::close(fd);
  mailbox_.close();
}

SocketFabricStats SocketFabric::stats() const {
  SocketFabricStats s;
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.connect_attempts = connect_attempts_.load(std::memory_order_relaxed);
  s.peer_deaths = peer_deaths_.load(std::memory_order_relaxed);
  s.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  s.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  s.readmissions = readmissions_.load(std::memory_order_relaxed);
  s.handshake_timeouts = handshake_timeouts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fdml
