// Length-framed wire encoding for the cross-process socket transport.
//
// Every frame that crosses a TCP connection is:
//
//   offset  0  u32  magic "FDML" (little-endian 0x4C4D4446)
//   offset  4  u8   version (kWireVersion)
//   offset  5  u8   kind (announce / welcome / data)
//   offset  6  u8   message tag (MessageTag, data frames only)
//   offset  7  u8   reserved (0)
//   offset  8  i32  source rank
//   offset 12  i32  destination rank
//   offset 16  u32  payload length
//   offset 20  ...  payload bytes
//   tail       u64  payload_digest over everything above (header + payload)
//
// Version 2 changed the footer from FNV-1a to payload_digest
// (comm/integrity.hpp), so a version-1 peer is refused as kBadVersion
// rather than read as corrupt.
//
// The codec is pure (no sockets) so the corrupt-wire corpus tests can drive
// it byte by byte: FrameParser is an incremental decoder that accepts
// arbitrary partial reads, and every malformed condition — bad magic, bad
// version, a length prefix beyond kWireMaxPayload, a digest mismatch — is a
// clean WireError instead of a crash or a corruption-sized allocation. A
// frame it emits carries the digest it verified, so the hub forwards it
// without hashing the same bytes again.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/message.hpp"

namespace fdml {

inline constexpr std::uint32_t kWireMagic = 0x4C4D4446u;  // "FDML"
inline constexpr std::uint8_t kWireVersion = 2;
/// Hard ceiling on a frame's payload. Protocol messages are kilobytes; a
/// length prefix above this is a corrupt or hostile stream, rejected before
/// any allocation is sized by it.
inline constexpr std::uint32_t kWireMaxPayload = 64u << 20;
inline constexpr std::size_t kWireHeaderSize = 20;
inline constexpr std::size_t kWireFooterSize = 8;

enum class FrameKind : std::uint8_t {
  /// First frame on every connection: peer -> hub, announcing its rank.
  kAnnounce = 1,
  /// Hub -> peer reply to an accepted announce; payload is the fabric size
  /// (u32) so both sides agree on the world they joined.
  kWelcome = 2,
  /// A routed Transport message.
  kData = 3,
};

struct WireFrame {
  FrameKind kind = FrameKind::kData;
  int source = -1;
  int dest = -1;
  MessageTag tag = MessageTag::kHello;
  std::vector<std::uint8_t> payload;
  /// Set by FrameParser: the footer it verified against these exact header
  /// fields and payload.
  std::uint64_t digest = 0;
};

/// Serializes a frame (header + payload + digest footer).
std::vector<std::uint8_t> encode_frame(const WireFrame& frame);

/// Serializes a frame FrameParser emitted, unchanged, with the digest the
/// parser verified instead of hashing it again. The bytes equal
/// encode_frame(frame).
std::vector<std::uint8_t> reencode_frame(const WireFrame& parsed);

/// Why a stream was rejected (kept as an enum so tests can assert the
/// parser fails for the *right* reason).
enum class WireError {
  kNone = 0,
  kBadMagic,
  kBadVersion,
  kBadKind,
  kOversizedPayload,
  kDigestMismatch,
};

const char* wire_error_name(WireError error);

/// Incremental frame decoder. Feed it whatever the socket produced — one
/// byte or one megabyte at a time — and it emits complete frames as they
/// close. A malformed stream poisons the parser (framing can no longer be
/// trusted, so the connection must be dropped).
class FrameParser {
 public:
  /// Appends `size` bytes and decodes every complete frame into `out`.
  /// Returns false once the stream is malformed; `error()` says why.
  bool feed(const std::uint8_t* data, std::size_t size,
            std::vector<WireFrame>& out);

  WireError error() const { return error_; }
  /// Bytes buffered awaiting the rest of a frame.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  WireError error_ = WireError::kNone;
};

}  // namespace fdml
