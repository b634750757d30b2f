// Framed durable records: the on-disk unit of the checkpoint store.
//
// Layout (all integers little-endian):
//
//   +0   magic          8 bytes  "FDMLDUR1"
//   +8   format version u32      (currently 1)
//   +12  kind           u32      application record kind (checkpoint)
//   +16  fingerprint    u64      dataset/model binding
//   +24  generation     u64      checkpoint generation
//   +32  payload size   u64
//   +40  payload        N bytes
//   +40+N digest        u64      FNV-1a over bytes [0, 40+N)
//
// The trailing digest makes torn writes, truncations and single-byte
// corruption detectable before any payload parsing runs: decode_frame
// returns nullopt for anything invalid and never throws on malformed input
// (the torn-file corpus test drives every truncation length and every
// single-byte flip through it).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "durable/vfs.hpp"

namespace fdml {

inline constexpr std::uint32_t kDurableFormatVersion = 1;

/// Application record kinds carried in the frame header.
inline constexpr std::uint32_t kFrameSearchCheckpoint = 1;

struct DurableFrame {
  std::uint32_t kind = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t generation = 0;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> encode_frame(const DurableFrame& frame);

/// Decodes one frame starting at `pos`; advances `pos` past it on success.
/// Returns nullopt (leaving `pos` untouched) on a bad magic, truncated
/// header/payload, or digest mismatch — never throws on malformed bytes.
std::optional<DurableFrame> decode_frame(const std::uint8_t* data,
                                         std::size_t size, std::size_t& pos);

/// Commits a single-frame file atomically: write `path`.tmp (fsynced),
/// rename over `path`, fsync the parent directory.
void write_frame_file_atomic(Vfs& vfs, const std::string& path,
                             const DurableFrame& frame);

/// Reads and validates a single-frame file. nullopt when the file is
/// missing, torn, corrupt, or carries trailing garbage.
std::optional<DurableFrame> read_frame_file(Vfs& vfs, const std::string& path);

}  // namespace fdml
