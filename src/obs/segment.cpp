#include "obs/segment.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace fdml::obs {

namespace {

/// How often the background thread drains the tracer.
constexpr std::chrono::milliseconds kFlushInterval{500};

void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Write-fsync-rename-fsync(dir): the standard torn-write-proof publish. A
// crash mid-write leaves only the .tmp, which loaders never look at.
void write_file_durably(const std::string& dir, const std::string& name,
                        const std::string& content) {
  const std::string tmp = dir + "/" + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open " + tmp);
  const char* data = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("write " + tmp);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    throw_errno("rename " + tmp);
  }
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

TraceSegmentWriter::TraceSegmentWriter(std::string dir,
                                       TraceSegmentOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.max_segment_bytes == 0) options_.max_segment_bytes = 1;
  if (options_.max_segments == 0) options_.max_segments = 1;
}

TraceSegmentWriter::~TraceSegmentWriter() { stop(); }

void TraceSegmentWriter::start() {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    throw_errno("mkdir " + dir_);
  }
  {
    std::lock_guard lock(mutex_);
    stopping_ = false;
    started_ = true;
  }
  thread_ = std::thread([this] { run(); });
}

void TraceSegmentWriter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  flush_now();
  // The trailing partial segment still holds the run's tail — publish it
  // even below the size cap.
  std::lock_guard lock(mutex_);
  if (!pending_.events.empty() || pending_.dropped_events > 0) {
    rotate_locked();
  }
  started_ = false;
}

void TraceSegmentWriter::run() {
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, kFlushInterval, [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    flush_now();
    lock.lock();
  }
}

void TraceSegmentWriter::flush_now() {
  TraceLog drained = Tracer::instance().drain_and_reset();
  if (drained.dropped_events > 0) {
    // Ring overflow used to be counted and thrown away; surface it — a
    // trace with silent holes reads as a healthy one.
    MetricsRegistry::process()
        .counter("obs.trace_dropped")
        .add(drained.dropped_events);
    FDML_WARN("obs") << "trace ring overflow: " << drained.dropped_events
                     << " events dropped before this flush (raise the ring "
                        "capacity or shorten the flush interval)";
  }
  if (drained.events.empty() && drained.dropped_events == 0) return;
  append(std::move(drained));
}

void TraceSegmentWriter::append(TraceLog&& drained) {
  std::lock_guard lock(mutex_);
  dropped_seen_ += drained.dropped_events;
  for (auto& [tid, name] : drained.threads) {
    pending_.set_thread(tid, std::move(name));
  }
  for (auto& event : drained.events) {
    pending_.events.push_back(std::move(event));
    // Serialized rows run ~120-200 bytes; a conservative floor keeps the
    // rotation check O(1) instead of reserializing the pending log.
    pending_bytes_ += 128;
  }
  pending_.dropped_events += drained.dropped_events;
  if (pending_bytes_ >= options_.max_segment_bytes) rotate_locked();
}

void TraceSegmentWriter::rotate_locked() {
  pending_.sort_events();
  std::ostringstream out;
  pending_.write_chrome(out);
  const std::uint64_t index = next_index_++;
  write_file_durably(dir_, "segment-" + std::to_string(index) + ".json",
                     out.str());
  ++written_;
  pending_ = TraceLog{};
  pending_bytes_ = 0;
  prune_locked();
}

void TraceSegmentWriter::prune_locked() {
  if (next_index_ < options_.max_segments) return;
  // Everything below the retention window goes; unlink is idempotent so
  // re-pruning an already-removed index is harmless.
  const std::uint64_t keep_from = next_index_ - options_.max_segments;
  for (std::uint64_t i = keep_from; i-- > 0;) {
    if (::unlink(segment_path(i).c_str()) != 0 && errno == ENOENT) break;
  }
}

std::string TraceSegmentWriter::segment_path(std::uint64_t index) const {
  return dir_ + "/segment-" + std::to_string(index) + ".json";
}

std::uint64_t TraceSegmentWriter::segments_written() const {
  std::lock_guard lock(mutex_);
  return written_;
}

std::uint64_t TraceSegmentWriter::dropped_seen() const {
  std::lock_guard lock(mutex_);
  return dropped_seen_;
}

}  // namespace fdml::obs
