// End-to-end payload integrity for the message-passing layer.
//
// The paper's runs spanned flaky, geographically distributed PVM nodes; a
// runtime that survives such fabrics cannot trust that the bytes a worker
// sent are the bytes the foreman receives. Every payload-bearing message is
// therefore sealed with a 64-bit FNV-1a digest appended to the payload;
// receivers verify-and-strip before decoding, and treat a mismatch as a
// malformed message (count + quarantine the sender) rather than a crash.
#pragma once

#include <cstdint>
#include <vector>

#include "util/fnv.hpp"

namespace fdml {

inline std::uint64_t payload_digest(const std::uint8_t* data, std::size_t size) {
  return fnv1a64(data, size);
}

/// Appends the digest footer (8 bytes, little-endian) to `payload`.
inline void seal_payload(std::vector<std::uint8_t>& payload) {
  const std::uint64_t digest = payload_digest(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<std::uint8_t>(digest >> (8 * i)));
  }
}

/// Verifies and strips the digest footer. Returns false (leaving `payload`
/// unspecified) when the footer is missing or does not match the content.
inline bool open_payload(std::vector<std::uint8_t>& payload) {
  if (payload.size() < 8) return false;
  const std::size_t body = payload.size() - 8;
  std::uint64_t footer = 0;
  for (int i = 0; i < 8; ++i) {
    footer |= static_cast<std::uint64_t>(payload[body + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (footer != payload_digest(payload.data(), body)) return false;
  payload.resize(body);
  return true;
}

}  // namespace fdml
