#include "comm/wire.hpp"

#include "comm/integrity.hpp"

namespace fdml {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

bool valid_kind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kAnnounce) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kData);
}

/// Header and payload, with room reserved for the footer.
std::vector<std::uint8_t> encode_body(const WireFrame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kWireHeaderSize + frame.payload.size() + kWireFooterSize);
  put_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(frame.kind));
  out.push_back(static_cast<std::uint8_t>(frame.tag));
  out.push_back(0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(frame.source));
  put_u32(out, static_cast<std::uint32_t>(frame.dest));
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const WireFrame& frame) {
  std::vector<std::uint8_t> out = encode_body(frame);
  put_u64(out, payload_digest(out.data(), out.size()));
  return out;
}

std::vector<std::uint8_t> reencode_frame(const WireFrame& parsed) {
  std::vector<std::uint8_t> out = encode_body(parsed);
  put_u64(out, parsed.digest);
  return out;
}

const char* wire_error_name(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kBadKind: return "bad_kind";
    case WireError::kOversizedPayload: return "oversized_payload";
    case WireError::kDigestMismatch: return "digest_mismatch";
  }
  return "unknown";
}

bool FrameParser::feed(const std::uint8_t* data, std::size_t size,
                       std::vector<WireFrame>& out) {
  if (error_ != WireError::kNone) return false;
  buffer_.insert(buffer_.end(), data, data + size);
  for (;;) {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < kWireHeaderSize) break;
    const std::uint8_t* head = buffer_.data() + consumed_;
    if (get_u32(head) != kWireMagic) {
      error_ = WireError::kBadMagic;
      return false;
    }
    if (head[4] != kWireVersion) {
      error_ = WireError::kBadVersion;
      return false;
    }
    if (!valid_kind(head[5])) {
      error_ = WireError::kBadKind;
      return false;
    }
    // The length prefix is validated against the hard ceiling before it
    // sizes anything: a flipped length byte must not make us buffer (or
    // later allocate) gigabytes waiting for a frame that never closes.
    const std::uint32_t length = get_u32(head + 16);
    if (length > kWireMaxPayload) {
      error_ = WireError::kOversizedPayload;
      return false;
    }
    const std::size_t total = kWireHeaderSize + length + kWireFooterSize;
    if (available < total) break;
    const std::uint64_t digest = get_u64(head + kWireHeaderSize + length);
    if (digest != payload_digest(head, kWireHeaderSize + length)) {
      error_ = WireError::kDigestMismatch;
      return false;
    }
    WireFrame frame;
    frame.kind = static_cast<FrameKind>(head[5]);
    frame.tag = static_cast<MessageTag>(head[6]);
    frame.source = static_cast<int>(get_u32(head + 8));
    frame.dest = static_cast<int>(get_u32(head + 12));
    frame.payload.assign(head + kWireHeaderSize, head + kWireHeaderSize + length);
    frame.digest = digest;
    out.push_back(std::move(frame));
    consumed_ += total;
    // Compact once the consumed prefix dominates so a long-lived
    // connection's buffer does not grow without bound.
    if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
      consumed_ = 0;
    }
  }
  return true;
}

}  // namespace fdml
