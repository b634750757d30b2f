// Endian-stable binary serialization for the message-passing layer.
// All integers are little-endian fixed width; doubles are IEEE-754 bit
// patterns carried in a u64. Strings and blobs are length-prefixed (u32).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fdml {

class Packer {
 public:
  void put_u8(std::uint8_t v) { buffer_.push_back(v); }

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& data() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

class Unpacker {
 public:
  explicit Unpacker(const std::vector<std::uint8_t>& data)
      : data_(data.data()), size_(data.size()) {}
  Unpacker(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t get_u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool get_bool() { return get_u8() != 0; }

  std::string get_string() {
    const std::uint32_t n = get_u32();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// Guards length-prefixed loops: throws unless the remaining buffer can
  /// still hold `n` items of at least `min_bytes_each` encoded bytes. Call
  /// before any n-proportional reserve() so a corrupt count fails as a clean
  /// truncation error instead of an allocation attempt sized by the
  /// corruption.
  void require_count(std::uint32_t n, std::size_t min_bytes_each) const {
    if (static_cast<std::size_t>(n) * min_bytes_each > remaining()) {
      throw std::out_of_range("Unpacker: truncated message (bad length prefix)");
    }
  }

  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > size_) throw std::out_of_range("Unpacker: truncated message");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace fdml
