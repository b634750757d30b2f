#include "comm/chaos_proxy.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "comm/socket.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace fdml {

namespace {

using Clock = std::chrono::steady_clock;

// Same mixing discipline as ChaosTransport (chaos.cpp): a decision is a pure
// function of (seed, lane, index), never of wall-clock or interleaving.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  return splitmix64_next(state);
}

std::uint64_t decision_seed(std::uint64_t seed, std::uint64_t conn_id,
                            bool inbound, std::uint64_t index) {
  const std::uint64_t lane = conn_id * 2 + (inbound ? 1 : 0);
  return mix64(mix64(seed, lane), index);
}

}  // namespace

ChaosProxy::ChaosProxy(ChaosProxyOptions options)
    : options_(std::move(options)), start_(Clock::now()) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("ChaosProxy: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.listen_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ChaosProxy: cannot bind port " +
                             std::to_string(options_.listen_port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  if (options_.plan.sock_partition_at_ms != 0 &&
      options_.plan.sock_partition_ms != 0) {
    partition_thread_ = std::thread([this] {
      const auto begin =
          start_ + std::chrono::milliseconds(options_.plan.sock_partition_at_ms);
      const auto end =
          begin + std::chrono::milliseconds(options_.plan.sock_partition_ms);
      std::unique_lock lock(conns_mutex_);
      if (partition_cv_.wait_until(lock, begin, [this] {
            return closing_.load(std::memory_order_acquire);
          })) {
        return;
      }
      lock.unlock();
      in_partition_.store(true, std::memory_order_release);
      obs::instant("chaosproxy", "partition_begin");
      FDML_INFO("chaosproxy") << "partition window open ("
                              << options_.plan.sock_partition_ms << " ms)";
      sever_all();
      lock.lock();
      partition_cv_.wait_until(lock, end, [this] {
        return closing_.load(std::memory_order_acquire);
      });
      in_partition_.store(false, std::memory_order_release);
      obs::instant("chaosproxy", "partition_end");
    });
  }
}

ChaosProxy::~ChaosProxy() { close(); }

bool ChaosProxy::partitioned() const {
  return in_partition_.load(std::memory_order_acquire);
}

int ChaosProxy::dial_target() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_text = std::to_string(options_.target_port);
  if (::getaddrinfo(options_.target_host.c_str(), port_text.c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    return -1;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, resolved->ai_addr, resolved->ai_addrlen) != 0) {
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  return fd;
}

void ChaosProxy::accept_loop() {
  while (!closing_.load(std::memory_order_acquire)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down
    }
    if (closing_.load(std::memory_order_acquire)) {
      ::close(client);
      break;
    }
    if (partitioned()) {
      // Partition semantics: the network simply is not there. Refusing by
      // abrupt close makes the peer's dialer back off and retry, which is
      // exactly the behavior under test.
      refused_.fetch_add(1, std::memory_order_relaxed);
      ::close(client);
      continue;
    }
    const int server = dial_target();
    if (server < 0) {
      ::close(client);
      continue;
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    conn->client_fd = client;
    conn->server_fd = server;
    {
      std::lock_guard lock(conns_mutex_);
      conn->id = ++next_conn_id_;
      conn->pump = std::thread([this, raw = conn.get()] {
        pump_connection(*raw);
      });
      conns_.push_back(std::move(conn));
    }
    reap_finished();
  }
}

bool ChaosProxy::forward_chunk(Conn& conn, bool inbound,
                               std::uint64_t chunk_index, int to_fd,
                               std::uint8_t* data, std::size_t size) {
  chunks_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(size, std::memory_order_relaxed);
  const FaultPlan& plan = options_.plan;
  Rng rng(decision_seed(plan.seed, conn.id, inbound, chunk_index));
  // Fixed draw order (latency, corrupt, close) — changing it would change
  // every seeded schedule, like reordering ChaosTransport's draws would.
  if (plan.sock_latency > 0.0 && rng.uniform() < plan.sock_latency) {
    const auto span = plan.delay_max_ms > plan.delay_min_ms
                          ? plan.delay_max_ms - plan.delay_min_ms
                          : 0;
    const auto hold = plan.delay_min_ms +
                      static_cast<std::uint32_t>(rng.below(span + 1));
    delays_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(hold));
  }
  if (plan.sock_corrupt > 0.0 && rng.uniform() < plan.sock_corrupt) {
    const std::uint64_t offset = rng.below(size);
    data[offset] ^= static_cast<std::uint8_t>(
        1u << static_cast<unsigned>(rng.below(8)));
    corruptions_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!write_all(to_fd, data, size)) return false;
  if (plan.sock_close > 0.0 && rng.uniform() < plan.sock_close) {
    closes_.fetch_add(1, std::memory_order_relaxed);
    obs::instant("chaosproxy", "close_fault", "conn",
                 static_cast<int>(conn.id));
    return false;
  }
  return true;
}

void ChaosProxy::pump_connection(Conn& conn) {
  std::vector<std::uint8_t> buffer(16 * 1024);
  // Per-lane chunk counters: client->server is the "outbound" lane (the
  // peer talking to the hub), server->client the "inbound" one.
  std::uint64_t out_index = 0;
  std::uint64_t in_index = 0;
  while (!closing_.load(std::memory_order_acquire) &&
         !conn.severed.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {conn.client_fd, POLLIN, 0};
    fds[1] = {conn.server_fd, POLLIN, 0};
    const int ready = ::poll(fds, 2, 200);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) break;
    if (ready == 0) continue;
    bool dead = false;
    for (int side = 0; side < 2 && !dead; ++side) {
      if ((fds[side].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int from = side == 0 ? conn.client_fd : conn.server_fd;
      const int to = side == 0 ? conn.server_fd : conn.client_fd;
      const ssize_t n = ::recv(from, buffer.data(), buffer.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        dead = true;
        break;
      }
      const bool inbound = side == 1;
      const std::uint64_t index = inbound ? ++in_index : ++out_index;
      if (!forward_chunk(conn, inbound, index, to, buffer.data(),
                         static_cast<std::size_t>(n))) {
        dead = true;
      }
    }
    if (dead) break;
  }
  sever(conn);
}

void ChaosProxy::sever(Conn& conn) {
  if (conn.severed.exchange(true, std::memory_order_acq_rel)) return;
  // Abrupt, both sides: the hub must see the EOF promptly or it would keep
  // believing the old connection is alive and reject the re-announce.
  ::shutdown(conn.client_fd, SHUT_RDWR);
  ::shutdown(conn.server_fd, SHUT_RDWR);
}

void ChaosProxy::sever_all() {
  // Sever under the lock: once a pump has severed its own connection the
  // accept loop may reap (delete) it the moment the lock is released.
  std::lock_guard lock(conns_mutex_);
  for (auto& conn : conns_) {
    if (conn->severed.load(std::memory_order_acquire)) continue;
    severed_.fetch_add(1, std::memory_order_relaxed);
    sever(*conn);
  }
}

void ChaosProxy::reap_finished() {
  // Joins pumps whose connection has been severed; called opportunistically
  // from the accept loop so a long-lived proxy does not accumulate threads.
  std::vector<std::unique_ptr<Conn>> done;
  {
    std::lock_guard lock(conns_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->severed.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : done) {
    if (conn->pump.joinable()) conn->pump.join();
    ::close(conn->client_fd);
    ::close(conn->server_fd);
  }
}

ChaosProxyStats ChaosProxy::stats() const {
  ChaosProxyStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.delays = delays_.load(std::memory_order_relaxed);
  s.corruptions = corruptions_.load(std::memory_order_relaxed);
  s.closes = closes_.load(std::memory_order_relaxed);
  s.severed = severed_.load(std::memory_order_relaxed);
  s.refused = refused_.load(std::memory_order_relaxed);
  return s;
}

void ChaosProxy::close() {
  if (closing_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard lock(conns_mutex_);
  }
  partition_cv_.notify_all();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (partition_thread_.joinable()) partition_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  sever_all();
  std::vector<std::unique_ptr<Conn>> all;
  {
    std::lock_guard lock(conns_mutex_);
    all.swap(conns_);
  }
  for (auto& conn : all) {
    if (conn->pump.joinable()) conn->pump.join();
    ::close(conn->client_fd);
    ::close(conn->server_fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace fdml
