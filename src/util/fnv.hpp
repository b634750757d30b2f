// FNV-1a 64-bit hashing: the durable-state layer's frame digest
// (src/durable/), whose on-disk format fixes it, and the alignment
// fingerprint. Messages and socket frames use payload_digest
// (comm/integrity.hpp) instead, which takes 8 bytes per step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fdml {

inline constexpr std::uint64_t kFnv1a64OffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// Hashes `size` bytes, continuing from `hash` so digests chain.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t hash = kFnv1a64OffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1a64Prime;
  }
  return hash;
}

inline std::uint64_t fnv1a64(std::string_view text,
                             std::uint64_t hash = kFnv1a64OffsetBasis) {
  return fnv1a64(text.data(), text.size(), hash);
}

/// Chains a 64-bit value (as 8 little-endian bytes) into a digest.
inline std::uint64_t fnv1a64_u64(std::uint64_t value,
                                 std::uint64_t hash = kFnv1a64OffsetBasis) {
  for (int i = 0; i < 8; ++i) {
    hash ^= static_cast<unsigned char>(value >> (8 * i));
    hash *= kFnv1a64Prime;
  }
  return hash;
}

}  // namespace fdml
