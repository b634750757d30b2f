// A fault-injecting TCP loopback proxy: the FaultPlan vocabulary applied to
// the socket layer.
//
// ChaosTransport perturbs *messages* inside one process; ChaosProxy perturbs
// *byte streams* between processes, which is where the interesting socket
// failures live: injected latency, flipped bytes (caught by the wire digest,
// surfacing as a dropped connection), mid-stream closes, and timed transient
// partitions. Peers dial the proxy's listen port instead of the hub; each
// accepted connection is paired with a fresh connection to the real hub and
// pumped in both directions, one fault decision per forwarded chunk.
//
// Determinism: every per-chunk decision is a pure function of (plan seed,
// connection index, direction, chunk index) — the same mixing discipline as
// ChaosTransport. Chunk *boundaries* depend on kernel timing, so two runs
// may fault different bytes; what is reproducible is the decision stream
// given the same chunking, and the plan line fully describes the intended
// fault mix for logs and CI.
//
// The partition window (sock_partition_at_ms/_ms) severs every proxied
// connection at its start and refuses new connects until it ends — the
// "transient network partition" the reconnect machinery must ride out.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/chaos.hpp"

namespace fdml {

/// The proxy listens on every interface, as the socket fabric's hub does.
struct ChaosProxyOptions {
  /// 0 = pick an ephemeral port; read it back with port().
  std::uint16_t listen_port = 0;
  std::string target_host = "127.0.0.1";
  std::uint16_t target_port = 0;
  /// Only the sock_* fields (and delay_min_ms/delay_max_ms for latency
  /// bounds) are consulted.
  FaultPlan plan;
};

struct ChaosProxyStats {
  std::uint64_t connections = 0;
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t delays = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t closes = 0;
  /// Connections severed administratively (sever_all / partition onset).
  std::uint64_t severed = 0;
  /// Connects refused while the partition window was open.
  std::uint64_t refused = 0;
};

class ChaosProxy {
 public:
  /// Binds the listen port and starts proxying. Throws when the listen
  /// socket cannot be bound (the *target* may come up later; each proxied
  /// connection dials it on accept and drops the client if it is down).
  explicit ChaosProxy(ChaosProxyOptions options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  std::uint16_t port() const { return port_; }

  /// Abruptly severs every live proxied connection (both directions), as a
  /// partition onset does. Deterministic tests use this instead of the
  /// probabilistic sock_close.
  void sever_all();

  /// True while inside the plan's partition window.
  bool partitioned() const;

  ChaosProxyStats stats() const;

  /// Stops accepting, severs everything, joins all pumps. Idempotent.
  void close();

 private:
  struct Conn {
    std::uint64_t id = 0;
    int client_fd = -1;
    int server_fd = -1;
    std::atomic<bool> severed{false};
    std::thread pump;
  };

  void accept_loop();
  void pump_connection(Conn& conn);
  /// Forwards one chunk with the lane's next fault decision applied.
  /// False when the connection should be severed (close fault or dead fd).
  bool forward_chunk(Conn& conn, bool inbound, std::uint64_t chunk_index,
                     int to_fd, std::uint8_t* data, std::size_t size);
  void sever(Conn& conn);
  int dial_target();
  void reap_finished();

  ChaosProxyOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::thread partition_thread_;
  std::atomic<bool> closing_{false};
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> in_partition_{false};

  mutable std::mutex conns_mutex_;
  std::condition_variable partition_cv_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 0;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::atomic<std::uint64_t> closes_{0};
  std::atomic<std::uint64_t> severed_{0};
  std::atomic<std::uint64_t> refused_{0};
};

}  // namespace fdml
