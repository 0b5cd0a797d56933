// Bounds-checked binary encoder/decoder used for every wire message.
//
// Protocol messages are serialized to byte vectors before entering the
// simulated network so that (a) message sizes are real and can be charged
// against link bandwidth, and (b) decoding exercises the same validation a
// networked deployment would need.
//
// Format: fixed-width little-endian integers, length-prefixed byte strings.
// Fixed-width fields use single bounds-checked memcpys on little-endian
// hosts (the byte-shift fallback keeps big-endian hosts correct), and the
// Encoder supports capacity pre-reservation plus clear-and-reuse so hot
// send paths serialize into one recycled buffer.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace plwg {

/// Thrown by Decoder when the input is truncated or malformed.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class Encoder {
 public:
  Encoder() = default;

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  template <class Tag, class Rep>
  void put_id(StrongId<Tag, Rep> id) {
    if constexpr (sizeof(Rep) == 4) {
      put_u32(id.value());
    } else {
      put_u64(id.value());
    }
  }

  /// Length-prefixed (u32) raw bytes.
  void put_bytes(std::span<const std::uint8_t> bytes);
  void put_string(std::string_view s);
  /// Unprefixed raw append (for message framing).
  void put_raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Bulk little-endian u64 append (no count prefix — callers write their
  /// own): one memcpy instead of a per-element encode loop, for the
  /// seq-list messages (ACK have-lists, NACK missing-lists) whose bodies
  /// are mostly such arrays.
  void put_u64_span(std::span<const std::uint64_t> vs) {
    // An empty span may carry a null data(); memcpy from null is undefined
    // even at length 0.
    if (vs.empty()) return;
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t off = buf_.size();
      buf_.resize(off + vs.size_bytes());
      std::memcpy(buf_.data() + off, vs.data(), vs.size_bytes());
    } else {
      for (std::uint64_t v : vs) put_u64(v);
    }
  }

  /// Pre-size the buffer (pair with the messages' encoded_size_hint()) so a
  /// whole message serializes without intermediate reallocation.
  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Reusable-buffer mode: drop the contents but keep the capacity, so a
  /// long-lived scratch Encoder serializes every message allocation-free
  /// once it has grown to the working-set message size.
  void clear() { buf_.clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put_le(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t off = buf_.size();
      buf_.resize(off + sizeof(T));
      std::memcpy(buf_.data() + off, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }

  std::vector<std::uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_le<std::uint64_t>());
  }
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }

  template <class Id>
  [[nodiscard]] Id get_id() {
    using Rep = typename Id::rep_type;
    if constexpr (sizeof(Rep) == 4) {
      return Id{get_u32()};
    } else {
      return Id{get_u64()};
    }
  }

  [[nodiscard]] std::vector<std::uint8_t> get_bytes();
  /// Bulk little-endian u64 read into `out` (counterpart of
  /// Encoder::put_u64_span; the caller has already read and validated the
  /// element count). Throws CodecError if fewer than `out.size()` elements
  /// remain.
  void get_u64_span(std::span<std::uint64_t> out);
  /// Zero-copy variant of get_bytes(): the returned span aliases the input
  /// buffer, valid only as long as the buffer the Decoder was built over.
  /// Payload passthrough paths (e.g. LWG DATA) use this to hand the user
  /// the bytes without an intermediate copy.
  [[nodiscard]] std::span<const std::uint8_t> get_bytes_view();
  [[nodiscard]] std::string get_string();

  /// Reads a u32 element count and validates it against the remaining
  /// input (each element needs at least `min_element_bytes`), so malformed
  /// counts throw instead of driving huge allocations. A zero
  /// `min_element_bytes` skips validation (for genuinely zero-size
  /// elements); callers then bound the loop themselves.
  [[nodiscard]] std::uint32_t get_count(std::size_t min_element_bytes = 1);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

  /// Throws CodecError unless all input was consumed. Call at the end of a
  /// message decode to catch trailing-garbage bugs.
  void expect_done() const;

 private:
  template <class T>
  T get_le() {
    require(sizeof(T));
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace plwg
