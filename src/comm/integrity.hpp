// End-to-end payload integrity for the message-passing layer.
//
// The paper's runs spanned flaky, geographically distributed PVM nodes; a
// runtime that survives such fabrics cannot trust that the bytes a worker
// sent are the bytes the foreman receives. Every payload-bearing message is
// therefore sealed with a 64-bit digest appended to the payload, and every
// receiver reads it through open_sealed, which treats a mismatch like any
// other malformed message: the caller counts it (and quarantines the
// sender) rather than crashing.
//
// payload_digest is also the socket wire's frame digest (comm/wire.hpp), so
// a relayed message is hashed at its seal, at each frame's encode and
// verify, and at open_sealed. It takes 8 bytes per step (MurmurHash64A) to
// keep that cheap; durable frames keep FNV-1a (util/fnv.hpp), whose on-disk
// format does not change with the wire.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "util/packer.hpp"

namespace fdml {

/// Size of the digest footer seal_payload appends.
inline constexpr std::size_t kSealSize = 8;

/// payload_digest's seed. Changing it changes every seal and frame digest,
/// so it changes the wire format (kWireVersion) too.
inline constexpr std::uint64_t kPayloadDigestSeed = 0x9e3779b97f4a7c15ULL;

/// MurmurHash64A (Austin Appleby, public domain) over little-endian 8-byte
/// words, seeded with kPayloadDigestSeed and the length. Each word's step,
/// the tail's step and the final mix are bijections of the running state,
/// so any change confined to one 8-byte word always changes the digest.
inline std::uint64_t payload_digest(const std::uint8_t* data, std::size_t size) {
  constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;
  constexpr int kShift = 47;
  std::uint64_t h = kPayloadDigestSeed ^ (std::uint64_t{size} * kMul);
  const std::size_t words = size / 8;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t k = 0;
    std::memcpy(&k, data + 8 * w, 8);
    if constexpr (std::endian::native == std::endian::big) {
      k = __builtin_bswap64(k);
    }
    k *= kMul;
    k ^= k >> kShift;
    k *= kMul;
    h ^= k;
    h *= kMul;
  }
  if (const std::size_t tail = size % 8; tail != 0) {
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < tail; ++i) {
      k |= std::uint64_t{data[8 * words + i]} << (8 * i);
    }
    h ^= k;
    h *= kMul;
  }
  h ^= h >> kShift;
  h *= kMul;
  h ^= h >> kShift;
  return h;
}

/// Appends the digest footer (8 bytes, little-endian) to `payload`.
inline void seal_payload(std::vector<std::uint8_t>& payload) {
  const std::uint64_t digest = payload_digest(payload.data(), payload.size());
  for (std::size_t i = 0; i < kSealSize; ++i) {
    payload.push_back(static_cast<std::uint8_t>(digest >> (8 * i)));
  }
}

/// The one reader of sealed payloads: verifies the digest footer, decodes
/// the body with `decode` (a T(Unpacker&), such as RoundMessage::unpack)
/// and requires it to consume every byte. Returns nullopt on any failure —
/// a missing or wrong footer, a decode that throws, bytes left over — and
/// leaves the reaction to the caller.
template <typename Decode>
auto open_sealed(const std::vector<std::uint8_t>& payload, Decode decode)
    -> std::optional<decltype(decode(std::declval<Unpacker&>()))> {
  if (payload.size() < kSealSize) return std::nullopt;
  const std::size_t body = payload.size() - kSealSize;
  std::uint64_t footer = 0;
  for (std::size_t i = 0; i < kSealSize; ++i) {
    footer |= static_cast<std::uint64_t>(payload[body + i]) << (8 * i);
  }
  if (footer != payload_digest(payload.data(), body)) return std::nullopt;
  try {
    return unpack_all(Unpacker(payload.data(), body), decode);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace fdml
