// Process metrics registry: named counters, gauges, and fixed-bucket
// histograms. Instruments register once (under a mutex, addresses stable for
// the registry's lifetime) and bump lock-free with relaxed atomics, so hot
// paths pay one uncontended atomic add. snapshot() reads everything
// consistently enough for reporting (each cell is read atomically; the set
// of cells is frozen under the registration mutex).
//
// The runtime stats structs (ForemanStats, MasterStats) are *views* over
// this registry: each role records the counter values at its start and
// reports end-minus-start deltas, so per-incarnation semantics survive
// foreman revival while the registry accumulates whole-run totals.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fdml::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one implicit overflow bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  std::size_t bucket_count() const { return bounds_.size() + 1; }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by name; 0 when the counter was never registered.
  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named instrument, registering it on first use. References
  /// stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is only consulted on first registration.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  /// Process-wide default used when a role is run without an explicit
  /// registry (e.g. foreman_main driven directly by a test).
  static MetricsRegistry& process();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// One field of a stats struct whose value lives in a registry counter: the
/// counter's registry name and the struct member it fills.
template <class Stats>
struct CounterField {
  std::string_view name;
  std::uint64_t Stats::*member;
};

/// Cached handles to the counters behind a stats struct, built from one
/// constexpr table of CounterFields. A role bumps counters through
/// bump<&Stats::field>() and reports since(start), where `start` is a
/// read() taken when it began.
template <class Stats, const auto& Fields>
class CounterSet {
  static_assert(std::size(Fields) * sizeof(std::uint64_t) == sizeof(Stats),
                "every stats field needs a registry counter");

 public:
  explicit CounterSet(MetricsRegistry& registry) {
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      handles_[i] = &registry.counter(Fields[i].name);
    }
  }

  /// Adds one to the counter behind `Member`. The table lookup happens at
  /// compile time, so a bump costs what a named handle would.
  template <std::uint64_t Stats::*Member>
  void bump() const {
    handles_[index_of(Member)]->add();
  }

  Stats read() const {
    Stats stats;
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      stats.*Fields[i].member = handles_[i]->value();
    }
    return stats;
  }

  /// The counters' growth since `start`.
  Stats since(const Stats& start) const {
    Stats stats = read();
    for (const CounterField<Stats>& field : Fields) {
      stats.*field.member -= start.*field.member;
    }
    return stats;
  }

 private:
  /// Bumping a field missing from the table does not compile.
  static consteval std::size_t index_of(std::uint64_t Stats::*member) {
    for (std::size_t i = 0; i < std::size(Fields); ++i) {
      if (Fields[i].member == member) return i;
    }
    throw "stats field missing from its counter table";
  }

  std::array<Counter*, std::size(Fields)> handles_{};
};

}  // namespace fdml::obs
