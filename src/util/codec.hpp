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
//
// Wire types declare their fields once, in wire order:
//   static constexpr auto kFields =
//       std::tuple{&FlushDoneMsg::old_view, &FlushDoneMsg::epoch, ...};
// and everything else is derived from that list: the encoder
// (Encoder::put), the decoder (Decoder::get), the exact encoded size
// (encoded_size, for Encoder::reserve) and the smallest encoding
// (min_encoded_size, the per-element floor Decoder::get_count checks).
// A field is a bool, an integer, a StrongId, another wire type, a byte
// string (std::vector<std::uint8_t>, a zero-copy
// std::span<const std::uint8_t>, or a refcounted SharedBytes), or a
// std::vector, std::set or std::map of fields; collections are a u32 count
// followed by the elements (map: key, value). A type whose wire form is not
// its field list writes the four pieces itself: encode(Encoder&), static
// decode(Decoder&), encoded_size() and kMinEncodedSize.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace plwg {

/// Thrown by Decoder when the input is truncated or malformed.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Shares ownership of a byte buffer. It may point anywhere into the
/// buffer: every pointer made from it keeps the whole buffer alive.
using BytesOwner = std::shared_ptr<const std::uint8_t>;

/// A read-only byte string that shares ownership of the buffer holding it,
/// so copying one bumps a refcount and never copies bytes. A decoded
/// payload is a slice of the frame it arrived in (see Decoder), and keeps
/// that whole frame alive. Encodes exactly like std::vector<std::uint8_t>:
/// a u32 length, then the bytes.
class SharedBytes {
 public:
  SharedBytes() = default;
  /// The bytes `bytes`, inside the buffer `owner` keeps alive.
  SharedBytes(BytesOwner owner, std::span<const std::uint8_t> bytes)
      : data_(std::move(owner), bytes.data()), size_(bytes.size()) {}
  /// Takes `bytes` over without copying them (one allocation: the block
  /// that holds the vector and its refcount).
  SharedBytes(std::vector<std::uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : SharedBytes(std::make_shared<const std::vector<std::uint8_t>>(
            std::move(bytes))) {}
  SharedBytes(std::initializer_list<std::uint8_t> bytes)
      : SharedBytes(std::vector<std::uint8_t>(bytes)) {}
  /// A fresh buffer holding a copy of `bytes`.
  [[nodiscard]] static SharedBytes copy_of(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::uint8_t* data() const { return data_.get(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data(), size_};
  }
  operator std::span<const std::uint8_t>() const {  // NOLINT(google-explicit-constructor)
    return span();
  }
  /// Keeps the whole underlying buffer alive; slices made from it share it.
  [[nodiscard]] const BytesOwner& owner() const { return data_; }

  /// Byte-wise equality.
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return std::ranges::equal(a.span(), b.span());
  }

 private:
  explicit SharedBytes(std::shared_ptr<const std::vector<std::uint8_t>> v)
      : data_(v, v->data()), size_(v->size()) {}

  BytesOwner data_;  // points at the first byte; owns the whole buffer
  std::size_t size_ = 0;
};

class Encoder;
class Decoder;

namespace codec_detail {

template <class P>
struct MemberOf;
template <class C, class M>
struct MemberOf<M C::*> {
  using type = M;
};
/// The type of the field a pointer-to-member of type P points at.
template <class P>
using FieldOf = typename MemberOf<P>::type;

template <class T>
inline constexpr bool kIsStrongId = false;
template <class Tag, class Rep>
inline constexpr bool kIsStrongId<StrongId<Tag, Rep>> = true;

template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;

template <class T>
concept FieldList = requires { T::kFields; };
template <class T>
concept HandWritten = requires(const T& v, Encoder& enc, Decoder& dec) {
  v.encode(enc);
  { T::decode(dec) } -> std::same_as<T>;
};
template <class T>
concept Bytes = std::same_as<T, std::vector<std::uint8_t>> ||
                std::same_as<T, std::span<const std::uint8_t>> ||
                std::same_as<T, SharedBytes>;
template <class T>
concept Scalar = std::integral<T> || kIsStrongId<T>;

/// Calls `f(v.*field)` for every field of `v`, in wire order.
template <class T, class V, class F>
void for_each_field(V& v, F&& f) {
  std::apply([&](auto... field) { (f(v.*field), ...); }, T::kFields);
}

}  // namespace codec_detail

/// Bytes in the smallest encoding of a T: the floor Decoder::get_count
/// checks per collection element.
template <class T>
constexpr std::size_t min_encoded_size() {
  using namespace codec_detail;
  if constexpr (FieldList<T>) {
    return std::apply(
        [](auto... field) {
          return (std::size_t{0} + ... +
                  min_encoded_size<FieldOf<decltype(field)>>());
        },
        T::kFields);
  } else if constexpr (HandWritten<T>) {
    return T::kMinEncodedSize;
  } else if constexpr (std::integral<T>) {
    return sizeof(T);
  } else if constexpr (kIsStrongId<T>) {
    return sizeof(typename T::rep_type);
  } else {
    return 4;  // a byte string or collection: its u32 length
  }
}

/// True when every value of T encodes to min_encoded_size<T>() bytes.
template <class T>
constexpr bool fixed_size() {
  using namespace codec_detail;
  if constexpr (FieldList<T>) {
    return std::apply(
        [](auto... field) {
          return (true && ... && fixed_size<FieldOf<decltype(field)>>());
        },
        T::kFields);
  } else {
    return Scalar<T>;
  }
}

/// Exact size of `v`'s encoding, for Encoder::reserve().
template <class T>
std::size_t encoded_size(const T& v) {
  using namespace codec_detail;
  if constexpr (fixed_size<T>()) {
    return min_encoded_size<T>();
  } else if constexpr (FieldList<T>) {
    std::size_t n = 0;
    for_each_field<T>(v, [&n](const auto& f) { n += encoded_size(f); });
    return n;
  } else if constexpr (HandWritten<T>) {
    return v.encoded_size();
  } else if constexpr (Bytes<T>) {
    return 4 + v.size();
  } else if constexpr (kIsMap<T>) {
    std::size_t n = 4;
    for (const auto& [key, value] : v) {
      n += encoded_size(key) + encoded_size(value);
    }
    return n;
  } else {
    using E = typename T::value_type;
    if constexpr (fixed_size<E>()) return 4 + v.size() * min_encoded_size<E>();
    std::size_t n = 4;
    for (const E& e : v) n += encoded_size(e);
    return n;
  }
}

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

  /// Appends `v` in its wire form (see the field-list notes at the top).
  template <class T>
  void put(const T& v) {
    using namespace codec_detail;
    if constexpr (FieldList<T>) {
      for_each_field<T>(v, [this](const auto& f) { put(f); });
    } else if constexpr (HandWritten<T>) {
      v.encode(*this);
    } else if constexpr (std::same_as<T, bool>) {
      put_bool(v);
    } else if constexpr (std::integral<T>) {
      put_le(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (kIsStrongId<T>) {
      put_id(v);
    } else if constexpr (Bytes<T>) {
      put_bytes(v);
    } else {
      put_u32(static_cast<std::uint32_t>(v.size()));
      if constexpr (std::same_as<T, std::vector<std::uint64_t>>) {
        put_u64_span(v);
      } else if constexpr (kIsMap<T>) {
        for (const auto& [key, value] : v) {
          put(key);
          put(value);
        }
      } else {
        for (const auto& e : v) put(e);
      }
    }
  }

  /// Pre-size the buffer (pair with encoded_size()) so a whole message
  /// serializes without intermediate reallocation.
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
  /// Decodes `data`, which lies in the buffer `owner` keeps alive: a
  /// SharedBytes field is then a slice of that buffer, not a copy. A null
  /// `owner` makes every SharedBytes a copy. `owner` is held by reference
  /// and must outlive the Decoder, like `data`.
  Decoder(std::span<const std::uint8_t> data, const BytesOwner& owner)
      : data_(data), owner_(owner ? &owner : nullptr) {}

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
  /// get_bytes() as a SharedBytes: a slice of the input when the Decoder
  /// was built with its owner, else a copy.
  [[nodiscard]] SharedBytes get_shared_bytes();
  [[nodiscard]] std::string get_string();

  /// Reads a u32 element count and validates it against the remaining
  /// input (each element needs at least `min_element_bytes`), so malformed
  /// counts throw instead of driving huge allocations. A zero
  /// `min_element_bytes` skips validation (for genuinely zero-size
  /// elements); callers then bound the loop themselves.
  [[nodiscard]] std::uint32_t get_count(std::size_t min_element_bytes = 1);

  /// Reads a T in its wire form (see the field-list notes at the top). A
  /// std::span<const std::uint8_t> field aliases the input buffer, like
  /// get_bytes_view().
  template <class T>
  [[nodiscard]] T get() {
    using namespace codec_detail;
    if constexpr (FieldList<T>) {
      T v{};
      for_each_field<T>(v, [this](auto& f) {
        f = get<std::remove_reference_t<decltype(f)>>();
      });
      return v;
    } else if constexpr (HandWritten<T>) {
      return T::decode(*this);
    } else if constexpr (std::same_as<T, bool>) {
      return get_bool();
    } else if constexpr (std::integral<T>) {
      return static_cast<T>(get_le<std::make_unsigned_t<T>>());
    } else if constexpr (kIsStrongId<T>) {
      return get_id<T>();
    } else if constexpr (std::same_as<T, std::vector<std::uint8_t>>) {
      return get_bytes();
    } else if constexpr (std::same_as<T, std::span<const std::uint8_t>>) {
      return get_bytes_view();
    } else if constexpr (std::same_as<T, SharedBytes>) {
      return get_shared_bytes();
    } else if constexpr (std::same_as<T, std::vector<std::uint64_t>>) {
      std::vector<std::uint64_t> out(get_count(sizeof(std::uint64_t)));
      get_u64_span(out);
      return out;
    } else if constexpr (kIsMap<T>) {
      using K = typename T::key_type;
      using V = typename T::mapped_type;
      const std::uint32_t n =
          get_count(min_encoded_size<K>() + min_encoded_size<V>());
      T out;
      for (std::uint32_t i = 0; i < n; ++i) {
        K key = get<K>();
        out.emplace_hint(out.end(), std::move(key), get<V>());
      }
      return out;
    } else {
      using E = typename T::value_type;
      static_assert(min_encoded_size<E>() > 0,
                    "a collection element must occupy at least one byte");
      const std::uint32_t n = get_count(min_encoded_size<E>());
      T out;
      if constexpr (requires { out.reserve(n); }) out.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) out.insert(out.end(), get<E>());
      return out;
    }
  }

  /// get<T>() for a whole entry: throws CodecError unless the T used up
  /// every remaining byte. Top-level message decodes use this, so a
  /// message followed by junk is refused rather than acted on.
  template <class T>
  [[nodiscard]] T get_exact() {
    T v = get<T>();
    expect_done();
    return v;
  }

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
  const BytesOwner* owner_ = nullptr;  // null: SharedBytes fields copy
};

}  // namespace plwg
