#include "obs/metrics.hpp"

#include <algorithm>

namespace fdml::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0 : it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, cell] : counters_) snap.counters[name] = cell->value();
  for (const auto& [name, cell] : gauges_) snap.gauges[name] = cell->value();
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = hist->bounds();
    hs.buckets.resize(hist->bucket_count());
    for (std::size_t i = 0; i < hs.buckets.size(); ++i) {
      hs.buckets[i] = hist->bucket(i);
    }
    hs.count = hist->count();
    hs.sum = hist->sum();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::process() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace fdml::obs
