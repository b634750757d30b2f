// Deterministic chaos engineering for the parallel runtime.
//
// ChaosTransport is the runtime's one message-level fault injector: a
// seeded, scriptable decorator for drop, delay (deferred redelivery), duplicate,
// reorder, payload corruption, and crash-at-message-N worker death. Every
// fault decision is a pure function of (plan seed, rank, message index), so
// a failing schedule is replayable from its FaultPlan alone — the property
// the chaos test suite leans on to reproduce multi-day-run failures in
// milliseconds.
//
// Semantics, chosen to mirror the real failure modes of the paper's
// geographically distributed PVM deployments:
//   - drop:      the message silently never arrives (lossy link).
//   - delay:     the message arrives late, via a background delivery thread;
//                the sender never blocks (a slow network, not a frozen host).
//   - duplicate: the message arrives twice (retransmit storm).
//   - reorder:   the message is held for a short window so later traffic
//                overtakes it (out-of-order fabric).
//   - corrupt:   one payload byte is flipped (bit rot / truncated frame);
//                receivers detect this through the integrity footer.
//   - crash:     after N outbound sends the host dies — further sends are
//                swallowed, pending deliveries are discarded, and receives
//                report shutdown so the role loop exits.
//
// kHello and kShutdown are never faulted: hello loss is modelled by
// crash_after_sends <= 1, and faulting shutdown would only wedge teardown,
// which is not an interesting failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/deferred.hpp"
#include "comm/transport.hpp"

namespace fdml {

/// A serializable chaos schedule: probabilities per fault kind plus the seed
/// that makes the whole schedule reproducible. serialize()/parse() give a
/// single-line `chaos-plan v1 key=value ...` form for logs and CLI flags.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Per-message probabilities in [0, 1], evaluated independently.
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  double reorder = 0.0;
  double delay = 0.0;
  /// Injected latency bounds for `delay` faults.
  std::uint32_t delay_min_ms = 1;
  std::uint32_t delay_max_ms = 20;
  /// How long a reordered message is held so later traffic overtakes it.
  std::uint32_t reorder_hold_ms = 10;
  /// Probability that a *received* kTask payload is corrupted (exercises the
  /// worker's NACK path; outbound `corrupt` covers the foreman's guard).
  double task_corrupt = 0.0;
  /// Host death: outbound send number `crash_after_sends` (1-based) and
  /// everything after it is swallowed, and receives report shutdown.
  /// 0 disables. 1 kills the worker before its hello.
  std::uint64_t crash_after_sends = 0;
  /// Filesystem faults (FaultVfs, src/durable/fault_vfs.hpp) — one plan
  /// line replays a failing crash schedule across the message fabric AND
  /// the durable layer. Probability a mutating durable op fails with EIO:
  double fs_error = 0.0;
  /// Probability a durable write persists only a seeded prefix of its
  /// bytes and then fails with ENOSPC.
  double fs_short_write = 0.0;
  /// Process death at the Nth (1-based) mutating durable op: the op takes
  /// partial effect (write truncated at a seeded offset, rename that may or
  /// may not land) and DurableCrash is thrown. 0 disables.
  std::uint64_t fs_crash_at_op = 0;
  /// Socket-layer faults (ChaosProxy, src/comm/chaos_proxy.hpp) — the same
  /// plan line drives a fault-injecting loopback proxy between socket-fabric
  /// peers and the hub. Per-forwarded-chunk probabilities:
  /// hold a chunk for a seeded delay in [delay_min_ms, delay_max_ms]:
  double sock_latency = 0.0;
  /// flip one byte of a chunk (the wire digest turns this into a dropped
  /// connection at the receiver, which then reconnects):
  double sock_corrupt = 0.0;
  /// sever the connection mid-stream (both directions, abrupt):
  double sock_close = 0.0;
  /// Timed transient partition: `sock_partition_ms` after proxy start (0 =
  /// never), every proxied connection is severed and new connects are
  /// refused for `sock_partition_ms` milliseconds.
  std::uint64_t sock_partition_at_ms = 0;
  std::uint64_t sock_partition_ms = 0;

  std::string serialize() const;
  static FaultPlan parse(const std::string& text);
};

/// What happened to one outbound message (for schedule-reproducibility
/// assertions and post-mortem logs).
struct FaultRecord {
  std::uint64_t message_index = 0;  // 1-based outbound send count
  MessageTag tag = MessageTag::kHello;
  bool dropped = false;
  bool duplicated = false;
  bool corrupted = false;
  bool reordered = false;
  std::uint32_t delay_ms = 0;   // 0 = delivered immediately
  std::uint32_t corrupt_offset = 0;

  bool operator==(const FaultRecord&) const = default;
};

/// Aggregate counters, shareable across the transports of a cluster.
struct ChaosTotals {
  std::atomic<std::uint64_t> drops{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> corruptions{0};
  std::atomic<std::uint64_t> reorders{0};
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> task_corruptions{0};
  std::atomic<std::uint64_t> crashes{0};
  std::atomic<std::uint64_t> swallowed_after_crash{0};
};

class ChaosTransport final : public Transport {
 public:
  /// The fault stream is keyed on `plan.seed` and the inner transport's
  /// rank, so one plan drives a whole cluster while each rank still sees an
  /// independent, reproducible schedule. `totals` is optional.
  ChaosTransport(std::unique_ptr<Transport> inner, FaultPlan plan,
                 std::shared_ptr<ChaosTotals> totals = nullptr);
  ~ChaosTransport() override;

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }

  void send(int dest, MessageTag tag, std::vector<std::uint8_t> payload) override;
  std::optional<Message> recv() override;
  std::optional<Message> recv_for(std::chrono::milliseconds timeout) override;
  bool closed() const override;

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  const FaultPlan& plan() const { return plan_; }

  /// Per-message fault decisions, in outbound send order (thread-safe copy).
  std::vector<FaultRecord> fault_log() const;

 private:
  void crash();
  std::optional<Message> filter_inbound(std::optional<Message> message);

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::shared_ptr<ChaosTotals> totals_;
  std::atomic<bool> crashed_{false};
  std::uint64_t send_index_ = 0;  // guarded by log_mutex_
  std::atomic<std::uint64_t> recv_index_{0};
  mutable std::mutex log_mutex_;
  std::vector<FaultRecord> log_;
  /// Declared last: joined (and flushed) before inner_ is destroyed.
  DeferredSender deferred_{*inner_};
};

}  // namespace fdml
