// Filesystem seam for the durable-state layer.
//
// Every byte the runtime persists (its checkpoints) goes through this
// interface instead of raw iostreams, for two reasons:
//   1. Durability: the real implementation fsyncs file data on write/append
//      and fsyncs the parent directory after a rename, closing the torn-file
//      and lost-rename windows that a bare ofstream + std::rename leaves
//      open (and it *checks* every return value — a full disk must report
//      failure, not success).
//   2. Fault injection: FaultVfs (fault_vfs.hpp) wraps this interface with a
//      seeded schedule of short writes, I/O errors and crash-at-op
//      truncations, so the recovery paths are tested against the same API
//      the production code uses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fdml {

class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Creates/truncates `path` with `size` bytes and flushes them to the
  /// device (fsync). Throws std::system_error on any failure.
  virtual void write_file(const std::string& path, const std::uint8_t* data,
                          std::size_t size) = 0;

  /// Appends `size` bytes to `path` (creating it if missing) and flushes
  /// them to the device. Throws std::system_error on any failure.
  virtual void append_file(const std::string& path, const std::uint8_t* data,
                           std::size_t size) = 0;

  /// Whole-file read; nullopt when the file does not exist. Throws
  /// std::system_error on a read error.
  virtual std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) = 0;

  /// Atomic rename (replaces `to` if it exists). Throws on failure —
  /// std::rename's ignored return value was exactly the bug this layer
  /// exists to fix.
  virtual void rename_file(const std::string& from, const std::string& to) = 0;

  /// Removes `path`; missing files are not an error.
  virtual void remove_file(const std::string& path) = 0;

  virtual bool exists(const std::string& path) = 0;

  /// Names (not paths) of the regular files in `dir` ("" or "." = cwd).
  virtual std::vector<std::string> list_dir(const std::string& dir) = 0;

  /// Flushes directory metadata so a completed rename survives power loss.
  virtual void sync_dir(const std::string& dir) = 0;
};

/// The process-wide real (POSIX) filesystem.
Vfs& real_vfs();

/// `vfs` if non-null, else the real filesystem — the idiom every durable
/// component uses to accept an injected Vfs.
inline Vfs& vfs_or_real(Vfs* vfs) { return vfs != nullptr ? *vfs : real_vfs(); }

/// Parent directory of `path` ("." when it has none) — the directory to
/// sync after renaming into place.
std::string parent_dir(const std::string& path);

}  // namespace fdml
