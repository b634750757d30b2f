// End-to-end payload integrity for the message-passing layer.
//
// The paper's runs spanned flaky, geographically distributed PVM nodes; a
// runtime that survives such fabrics cannot trust that the bytes a worker
// sent are the bytes the foreman receives. Every payload-bearing message is
// therefore sealed with a 64-bit FNV-1a digest appended to the payload, and
// every receiver reads it through open_sealed, which treats a mismatch like
// any other malformed message: the caller counts it (and quarantines the
// sender) rather than crashing.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "util/fnv.hpp"
#include "util/packer.hpp"

namespace fdml {

/// Size of the digest footer seal_payload appends.
inline constexpr std::size_t kSealSize = 8;

inline std::uint64_t payload_digest(const std::uint8_t* data, std::size_t size) {
  return fnv1a64(data, size);
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
