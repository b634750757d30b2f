#include "durable/frame.hpp"

#include <cstring>

#include "util/fnv.hpp"

namespace fdml {

namespace {

constexpr char kMagic[8] = {'F', 'D', 'M', 'L', 'D', 'U', 'R', '1'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t kDigestSize = 8;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* data) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* data) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const DurableFrame& frame) {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  out.reserve(kHeaderSize + frame.payload.size() + kDigestSize);
  put_u32(out, kDurableFormatVersion);
  put_u32(out, frame.kind);
  put_u64(out, frame.fingerprint);
  put_u64(out, frame.generation);
  put_u64(out, static_cast<std::uint64_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  put_u64(out, fnv1a64(out.data(), out.size()));
  return out;
}

std::optional<DurableFrame> decode_frame(const std::uint8_t* data,
                                         std::size_t size, std::size_t& pos) {
  if (pos > size || size - pos < kHeaderSize + kDigestSize) return std::nullopt;
  const std::uint8_t* head = data + pos;
  if (std::memcmp(head, kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  if (get_u32(head + 8) != kDurableFormatVersion) return std::nullopt;
  DurableFrame frame;
  frame.kind = get_u32(head + 12);
  frame.fingerprint = get_u64(head + 16);
  frame.generation = get_u64(head + 24);
  const std::uint64_t payload_size = get_u64(head + 32);
  const std::size_t remaining = size - pos - kHeaderSize;
  if (payload_size > remaining || remaining - payload_size < kDigestSize) {
    return std::nullopt;
  }
  const std::size_t body = kHeaderSize + static_cast<std::size_t>(payload_size);
  const std::uint64_t stored = get_u64(head + body);
  if (stored != fnv1a64(head, body)) return std::nullopt;
  frame.payload.assign(head + kHeaderSize, head + body);
  pos += body + kDigestSize;
  return frame;
}

void write_frame_file_atomic(Vfs& vfs, const std::string& path,
                             const DurableFrame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  const std::string tmp = path + ".tmp";
  vfs.write_file(tmp, bytes.data(), bytes.size());
  vfs.rename_file(tmp, path);
  vfs.sync_dir(parent_dir(path));
}

std::optional<DurableFrame> read_frame_file(Vfs& vfs, const std::string& path) {
  std::optional<std::vector<std::uint8_t>> bytes;
  try {
    bytes = vfs.read_file(path);
  } catch (const std::exception&) {
    return std::nullopt;  // an unreadable candidate is as useless as a torn one
  }
  if (!bytes.has_value()) return std::nullopt;
  std::size_t pos = 0;
  auto frame = decode_frame(bytes->data(), bytes->size(), pos);
  if (!frame.has_value() || pos != bytes->size()) return std::nullopt;
  return frame;
}

}  // namespace fdml
