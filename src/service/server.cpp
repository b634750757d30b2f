#include "service/server.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "comm/integrity.hpp"
#include "comm/socket.hpp"
#include "comm/wire.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace fdml {

namespace {

using Clock = std::chrono::steady_clock;

bool send_service_frame(int fd, MessageTag tag,
                        std::vector<std::uint8_t> payload) {
  WireFrame frame;
  frame.kind = FrameKind::kData;
  frame.tag = tag;
  frame.source = -1;
  frame.dest = -1;
  frame.payload = std::move(payload);
  const auto bytes = encode_frame(frame);
  return write_all(fd, bytes.data(), bytes.size());
}

/// Why recv_service_frame returned without a frame. A wedged server (open
/// connection, no bytes) and a dead one (EOF) used to be indistinguishable
/// nullopts; clients then blocked forever or reported the wrong failure.
enum class RecvStatus {
  kFrame,     ///< a complete frame was delivered
  kTimeout,   ///< deadline passed with the connection still open
  kClosed,    ///< peer closed (EOF) or the read failed
  kProtocol,  ///< the byte stream failed wire framing
};

/// Blocks until one complete frame arrives, the deadline passes, or the
/// connection dies; `out` is set only on kFrame.
RecvStatus recv_service_frame(int fd, FrameParser& parser,
                              Clock::time_point deadline,
                              std::optional<WireFrame>& out) {
  std::vector<std::uint8_t> buffer(16 * 1024);
  std::vector<WireFrame> frames;
  while (true) {
    const auto now = Clock::now();
    if (now >= deadline) return RecvStatus::kTimeout;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const auto wait =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return RecvStatus::kClosed;
    if (ready == 0) return RecvStatus::kTimeout;
    const ssize_t n = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return RecvStatus::kClosed;
    if (!parser.feed(buffer.data(), static_cast<std::size_t>(n), frames)) {
      return RecvStatus::kProtocol;
    }
    if (!frames.empty()) {
      out = std::move(frames.front());
      return RecvStatus::kFrame;
    }
  }
}

/// Bounded connect: non-blocking connect + poll, so a black-holed host
/// (SYN never answered) times out at `deadline` instead of the kernel's
/// minutes-long default. Throws ServiceTimeoutError/runtime_error.
int dial(const std::string& host, std::uint16_t port,
         Clock::time_point deadline, std::chrono::milliseconds timeout) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &resolved) != 0 ||
      resolved == nullptr) {
    throw std::runtime_error("service: cannot resolve " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  bool timed_out = false;
  if (fd >= 0) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, resolved->ai_addr, resolved->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      for (;;) {
        const auto now = Clock::now();
        if (now >= deadline) {
          timed_out = true;
          rc = -1;
          break;
        }
        const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - now);
        const int ready = ::poll(&pfd, 1, static_cast<int>(wait.count()) + 1);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) {
          timed_out = ready == 0;
          rc = -1;
          break;
        }
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        rc = err == 0 ? 0 : -1;
        break;
      }
    }
    if (rc != 0) {
      ::close(fd);
      fd = -1;
    } else {
      ::fcntl(fd, F_SETFL, flags);
    }
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    if (timed_out) throw ServiceTimeoutError("connect to " + host, timeout);
    throw std::runtime_error("service: cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

ServiceServer::ServiceServer(JobScheduler& scheduler,
                             obs::MetricsRegistry& registry,
                             ServiceServerOptions options)
    : scheduler_(scheduler), registry_(registry), options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("ServiceServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ServiceServer: cannot bind port " +
                             std::to_string(options_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
  FDML_INFO("service") << "listening on port " << port_;
}

ServiceServer::~ServiceServer() { close(); }

void ServiceServer::accept_loop() {
  obs::set_thread_name("service-accept");
  while (!closing_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (closing_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(conn_mutex_);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void ServiceServer::serve_connection(int fd) {
  obs::set_thread_name("service-conn");
  FrameParser parser;
  // A connection gets 30s to state its request; the *reply* (which may
  // carry a whole search) is not under this deadline.
  std::optional<WireFrame> request;
  recv_service_frame(fd, parser, Clock::now() + std::chrono::seconds(30),
                     request);
  if (!request.has_value() || request->kind != FrameKind::kData) {
    registry_.counter("service.bad_requests").add();
    ::close(fd);
    return;
  }
  switch (request->tag) {
    case MessageTag::kSubmit: {
      const std::optional<JobSpec> spec =
          open_sealed(request->payload, JobSpec::unpack);
      if (!spec.has_value()) {
        registry_.counter("service.bad_requests").add();
        send_service_frame(
            fd, MessageTag::kJobRejected,
            {static_cast<std::uint8_t>(RejectReason::kBadRequest)});
        break;
      }
      const auto submission = scheduler_.submit(*spec);
      if (submission.rejected.has_value()) {
        send_service_frame(
            fd, MessageTag::kJobRejected,
            {static_cast<std::uint8_t>(*submission.rejected)});
        break;
      }
      {
        Packer p;
        p.put_u64(submission.job_id);
        if (!send_service_frame(fd, MessageTag::kJobAccepted, p.take())) break;
      }
      JobOutcome outcome = scheduler_.wait(submission.job_id);
      std::vector<std::uint8_t> encoded = outcome.encode();
      seal_payload(encoded);
      send_service_frame(fd, MessageTag::kJobDone, std::move(encoded));
      break;
    }
    case MessageTag::kMetricsQuery: {
      const std::string text = prometheus_exposition();
      std::vector<std::uint8_t> payload(text.begin(), text.end());
      seal_payload(payload);
      send_service_frame(fd, MessageTag::kMetricsReply, std::move(payload));
      break;
    }
    default:
      registry_.counter("service.bad_requests").add();
      break;
  }
  ::close(fd);
}

std::string ServiceServer::prometheus_exposition() const {
  std::ostringstream out;
  // The hub process's own registry is rank 0 of the cluster.
  out << obs::to_prometheus(registry_.snapshot(), "fdml_", "rank=\"0\"");
  if (options_.telemetry != nullptr) {
    out << obs::to_prometheus(*options_.telemetry, Clock::now());
  }
  out << obs::to_prometheus(scheduler_.progress());
  return out.str();
}

void ServiceServer::close() {
  if (closing_.exchange(true, std::memory_order_acq_rel)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard lock(conn_mutex_);
    conns.swap(conn_threads_);
  }
  for (auto& thread : conns) {
    if (thread.joinable()) thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

namespace {

/// Receives one frame or throws: ServiceTimeoutError on deadline (the wedged
/// server the read deadline exists for), runtime_error on close/garbage.
WireFrame recv_or_throw(int fd, FrameParser& parser, Clock::time_point deadline,
                        std::chrono::milliseconds timeout,
                        const std::string& operation) {
  std::optional<WireFrame> frame;
  switch (recv_service_frame(fd, parser, deadline, frame)) {
    case RecvStatus::kFrame:
      return std::move(*frame);
    case RecvStatus::kTimeout:
      ::close(fd);
      throw ServiceTimeoutError(operation, timeout);
    case RecvStatus::kClosed:
      ::close(fd);
      throw std::runtime_error("service: connection closed awaiting " +
                               operation);
    case RecvStatus::kProtocol:
    default:
      ::close(fd);
      throw std::runtime_error("service: malformed reply to " + operation);
  }
}

}  // namespace

ServiceReply service_submit(const std::string& host, std::uint16_t port,
                            const JobSpec& spec,
                            std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  const int fd = dial(host, port, deadline, timeout);
  std::vector<std::uint8_t> payload = spec.encode();
  seal_payload(payload);
  if (!send_service_frame(fd, MessageTag::kSubmit, std::move(payload))) {
    ::close(fd);
    throw std::runtime_error("service: submit write failed");
  }
  FrameParser parser;
  ServiceReply reply;
  const WireFrame first =
      recv_or_throw(fd, parser, deadline, timeout, "submit reply");
  if (first.tag == MessageTag::kJobRejected) {
    ::close(fd);
    reply.rejected = first.payload.empty()
                         ? RejectReason::kBadRequest
                         : static_cast<RejectReason>(first.payload[0]);
    return reply;
  }
  if (first.tag != MessageTag::kJobAccepted || first.payload.size() != 8) {
    ::close(fd);
    throw std::runtime_error("service: unexpected reply to submit");
  }
  reply.job_id = Unpacker(first.payload).get_u64();
  const WireFrame done = recv_or_throw(
      fd, parser, deadline, timeout,
      "job " + std::to_string(reply.job_id) + " outcome");
  ::close(fd);
  if (done.tag != MessageTag::kJobDone) {
    throw std::runtime_error("service: job " + std::to_string(reply.job_id) +
                             " outcome never arrived");
  }
  reply.outcome = open_sealed(done.payload, JobOutcome::unpack);
  if (!reply.outcome.has_value()) {
    throw std::runtime_error("service: job " + std::to_string(reply.job_id) +
                             " outcome is malformed");
  }
  return reply;
}

std::string service_scrape(const std::string& host, std::uint16_t port,
                           std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  const int fd = dial(host, port, deadline, timeout);
  if (!send_service_frame(fd, MessageTag::kMetricsQuery, {})) {
    ::close(fd);
    throw std::runtime_error("service: scrape write failed");
  }
  FrameParser parser;
  const WireFrame frame =
      recv_or_throw(fd, parser, deadline, timeout, "scrape reply");
  ::close(fd);
  if (frame.tag != MessageTag::kMetricsReply) {
    throw std::runtime_error("service: unexpected reply to scrape");
  }
  // The body is the Prometheus text itself, every byte of it.
  std::optional<std::string> text =
      open_sealed(frame.payload, [](Unpacker& in) {
        std::string body(in.remaining(), '\0');
        for (char& c : body) c = static_cast<char>(in.get_u8());
        return body;
      });
  if (!text.has_value()) {
    throw std::runtime_error("service: scrape reply is malformed");
  }
  return std::move(*text);
}

}  // namespace fdml
