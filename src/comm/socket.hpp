// Cross-process TCP transport: the first backend of the comm seam that
// actually crosses the process boundary the seam exists for.
//
// Topology is a star, like the paper's PVM runs routing through pvmd: rank 0
// (the master process) listens on a TCP port and routes frames; every other
// rank connects to it, announces itself (kAnnounce -> kWelcome rendezvous
// handshake), and then exchanges length-framed messages (comm/wire.hpp).
// Each side runs one reader thread (robust partial-read loop feeding a
// FrameParser) and one writer thread per connection. A send writes its
// frame inline, from the sending thread, when nothing is queued for the
// route and no other thread is writing to it, with a non-blocking send();
// whatever does not go out at once (a full socket, the rest of a partial
// write, an error, a busy route) goes to the route's unbounded queue, which
// the writer thread drains with blocking writes. So Transport::send() never
// blocks on a slow receiver, a relayed frame costs no thread wake-up on an
// idle route, and one route's frames never interleave or reorder.
//
// Failure mapping (the PR 2 health machine does the rest):
//   - A peer dying (EOF/ECONNRESET at the hub) marks its route dead; frames
//     to it are dropped and counted. To the foreman the worker simply goes
//     silent, which the adaptive deadline turns into suspect -> quarantine.
//   - The hub dying closes every peer's connection; the peer's reader exits
//     and its mailbox closes, so recv() returns nullopt and the role loop
//     unwinds cleanly (the same "closed mailbox" contract ThreadFabric has).
//   - A malformed byte stream (bad magic, oversized length, digest
//     mismatch) poisons that connection only; it is dropped like a death.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "comm/transport.hpp"
#include "comm/wire.hpp"
#include "util/channel.hpp"

namespace fdml::obs {
class Counter;
}

namespace fdml {

struct SocketOptions {
  /// This process's rank (0 = hub/master; see protocol.hpp rank layout).
  int rank = 0;
  /// Total ranks in the fabric (master + foreman + monitor + workers).
  int size = 0;
  /// Hub address peers connect to. The hub itself binds all interfaces.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Rendezvous budget: peers retry connecting every `connect_retry` until
  /// `connect_timeout` so launch order does not matter.
  std::chrono::milliseconds connect_timeout{15000};
  std::chrono::milliseconds connect_retry{100};
  /// Hub-side slow-loris guard: a connection that completes TCP but has not
  /// delivered a full, valid announce within this window is timed out and
  /// closed instead of holding a reader slot forever.
  std::chrono::milliseconds handshake_timeout{5000};
  /// Peer-side reconnect-and-re-admission: when the hub connection drops
  /// (EOF, reset, framing error) and the fabric is not closing, redial and
  /// re-announce under bounded exponential backoff + jitter for up to
  /// `reconnect_budget` per outage instead of closing the mailbox at the
  /// first EOF. The hub re-admits a reconnecting rank whose previous
  /// connection is dead. Off by default: a plain cluster run treats hub
  /// loss as the end of the run.
  bool reconnect = false;
  std::chrono::milliseconds reconnect_backoff{50};
  std::chrono::milliseconds reconnect_budget{15000};
};

/// Live traffic/lifecycle counters (fabric-local; every bump also lands on
/// the field's "socket.<field>" twin in the process metrics registry).
struct SocketFabricStats {
  /// Frames written whole, inline or by a writer thread; each counts once.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t connect_attempts = 0;
  std::uint64_t peer_deaths = 0;
  /// Frames dropped because their destination was dead or never announced
  /// by the time the fabric closed.
  std::uint64_t frames_dropped = 0;
  /// Connections dropped for a malformed byte stream.
  std::uint64_t frame_errors = 0;
  /// Hub: dead ranks accepted back on a fresh connection. Peer: successful
  /// reconnects to the hub after an outage.
  std::uint64_t readmissions = 0;
  /// Hub: connections closed for not completing the announce handshake
  /// within `handshake_timeout` (slow-loris guard).
  std::uint64_t handshake_timeouts = 0;
  /// Frames a send handed to the route's writer thread instead of writing
  /// them whole inline: the socket was full, a write was partial or
  /// failed, the route was busy or had a queue, or it was not connected.
  std::uint64_t frames_queued = 0;
};

/// One process's endpoint of the TCP fabric. Construct with rank 0 to
/// listen (the constructor returns once the port is bound; peers may then
/// rendezvous at any time) or rank != 0 to connect (the constructor blocks
/// through the announce/welcome handshake and throws on timeout).
class SocketFabric {
 public:
  explicit SocketFabric(SocketOptions options);
  ~SocketFabric();

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  int rank() const { return options_.rank; }
  int size() const { return options_.size; }

  /// The local Transport endpoint (one mailbox per process; endpoints
  /// borrow the fabric and must not outlive it).
  std::unique_ptr<Transport> endpoint();

  /// Hub only: blocks until every peer rank has completed the handshake.
  /// False on timeout (some rank never arrived).
  bool wait_ready(std::chrono::milliseconds timeout);

  /// Hub only: blocks until every announced peer has disconnected (their
  /// processes exited) or `timeout` elapsed. Lets the hub keep routing
  /// shutdown traffic until the fabric has actually drained.
  bool wait_peers_gone(std::chrono::milliseconds timeout);

  /// Ranks whose connection has died (EOF / reset / framing error). Hub
  /// only; used by tests and diagnostics.
  std::vector<int> dead_peers() const;

  /// Marks subsequent disconnects as orderly (not counted as peer deaths).
  /// The hub calls this right before broadcasting shutdown so only
  /// unexpected losses show up in stats().peer_deaths.
  void expect_departures() {
    expecting_departures_.store(true, std::memory_order_release);
  }

  SocketFabricStats stats() const;

  /// Flushes send queues, tears down every connection and closes the local
  /// mailbox (receivers drain then observe shutdown). Idempotent.
  void close();

 private:
  friend class SocketEndpoint;

  /// A frame awaiting a route's writer thread; `sent` bytes of it are
  /// already on the wire (an inline write that stopped part way).
  struct Pending {
    std::vector<std::uint8_t> bytes;
    std::size_t sent = 0;
  };

  struct Peer {
    std::atomic<int> fd{-1};
    /// Connection generation, bumped on every (re)connect. A death report
    /// carries the generation it observed; a report for a superseded
    /// connection is a no-op, so a stale write failure on a retired fd can
    /// never kill the route's replacement connection.
    std::atomic<std::uint64_t> generation{0};
    std::atomic<bool> announced{false};
    std::atomic<bool> dead{false};
    /// A connection for this rank is mid-handshake (guarded by conn_mutex_);
    /// a racing announce for the same rank is rejected as a duplicate.
    bool handshaking = false;
    /// Held by whichever thread writes to `fd`: an inline sender for one
    /// non-blocking send, or the writer thread for one queued frame.
    /// Installing or closing an fd takes it too, so no write ever lands on
    /// a swapped-out descriptor. A writer that fails marks the peer dead,
    /// taking conn_mutex_, while it holds this lock.
    std::mutex write_mutex;
    /// Frames awaiting the writer thread. Exists from fabric construction
    /// so traffic to a rank that has not rendezvoused yet is buffered, then
    /// flushed in order when it announces. A send writes inline only while
    /// this is empty, which keeps each sender's frames in order.
    std::deque<Pending> queue;
    /// Set by close(): no more frames are taken, and the writer exits once
    /// the queue is drained.
    bool queue_closed = false;
    /// Guards `queue` and `queue_closed`.
    std::mutex queue_mutex;
    std::condition_variable queue_cv;
    /// Assigned and taken only under conn_mutex_ (see start_writer).
    std::thread writer;
  };

  /// One SocketFabricStats field: this fabric's count plus its
  /// "socket.<field>" twin in the process metrics registry, resolved once.
  /// Several fabrics in one process share that registry, so each keeps
  /// its own count too.
  class Tally {
   public:
    explicit Tally(std::string_view registry_name);
    void add(std::uint64_t n = 1);
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

   private:
    std::atomic<std::uint64_t> value_{0};
    obs::Counter& twin_;
  };

  void send_message(int dest, MessageTag tag, std::vector<std::uint8_t> payload);
  /// Writes an encoded frame to `route` inline if it can, else queues it
  /// for the route's writer thread. Never blocks on the socket.
  void send_frame(Peer& route, std::vector<std::uint8_t> bytes);
  void deliver_local(int source, MessageTag tag, std::vector<std::uint8_t> payload);

  void start_hub();
  void accept_loop();
  void hub_connection(int fd);
  void route_frame(WireFrame frame);

  void connect_to_hub();
  /// Knocks on the hub port until `deadline`, backing off exponentially
  /// from `base` (jittered, capped). Returns the connected fd or -1 when
  /// the budget ran out or the fabric started closing.
  int dial_hub(std::chrono::steady_clock::time_point deadline,
               std::chrono::milliseconds base);
  /// Announce/welcome rendezvous over a freshly dialed fd, feeding
  /// peer_parser_ (data frames riding behind the welcome are delivered).
  bool handshake_with_hub(int fd, std::chrono::steady_clock::time_point deadline);
  /// Redials + re-announces after an outage, within reconnect_budget.
  /// True when a new connection is installed on peers_[0].
  bool reconnect_to_hub();
  void peer_reader_loop();

  /// Starts the peer's writer thread; once close() has begun, the writer
  /// only drains and is joined here.
  void start_writer(Peer& peer);
  /// Drains the route's queue with blocking writes, one frame per hold of
  /// the write lock.
  void writer_loop(Peer& peer);
  void mark_peer_dead(Peer& peer, std::uint64_t generation, const char* why);
  /// Parks an fd superseded by a reconnect (or a rejected handshake) until
  /// close(): retiring instead of closing means a thread still blocked on
  /// the old descriptor can never race a reused fd number.
  void retire_fd(int fd);

  SocketOptions options_;
  Channel<Message> mailbox_;

  std::atomic<bool> closing_{false};
  std::atomic<bool> expecting_departures_{false};
  std::mutex close_mutex_;
  bool closed_ = false;

  // --- hub state (rank 0) ---
  int listen_fd_ = -1;
  std::thread accept_thread_;
  /// Indexed by rank; [0] unused. Hub: every remote rank. Peer: only
  /// [0] (the hub connection) is live.
  std::vector<std::unique_ptr<Peer>> peers_;
  mutable std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  int announced_count_ = 0;
  int live_count_ = 0;
  std::vector<std::thread> conn_threads_;
  /// Superseded/rejected descriptors awaiting close() (see retire_fd).
  std::vector<int> retired_fds_;

  // --- peer state (rank != 0) ---
  std::thread reader_thread_;
  /// The hub connection's frame parser. Shared between the handshake and
  /// the reader loop: the hub may flush queued data frames right behind the
  /// welcome, and any of them read together with it (same recv()) must not
  /// be lost when the reader takes over mid-stream.
  FrameParser peer_parser_;

  // --- counters ---
  Tally frames_sent_{"socket.frames_sent"};
  Tally frames_received_{"socket.frames_received"};
  Tally bytes_sent_{"socket.bytes_sent"};
  Tally bytes_received_{"socket.bytes_received"};
  Tally connect_attempts_{"socket.connect_attempts"};
  Tally peer_deaths_{"socket.peer_deaths"};
  Tally frames_dropped_{"socket.frames_dropped"};
  Tally frame_errors_{"socket.frame_errors"};
  Tally readmissions_{"socket.readmissions"};
  Tally handshake_timeouts_{"socket.handshake_timeouts"};
  Tally frames_queued_{"socket.frames_queued"};
};

/// Sends all `size` bytes on a connected TCP socket, retrying partial
/// writes and EINTR. False on any other error (a dead peer, or EAGAIN from
/// an SO_SNDTIMEO write timeout) or a zero-byte send. Never raises SIGPIPE.
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

}  // namespace fdml
