// One seeded 64-bit hash for every per-byte pass: the transport frame
// checksum and the protocol oracle's payload keys.
//
// Word-wise, in the style of MurmurHash64A: the input is read as 8-byte
// little-endian words (an explicit load, so the value does not depend on
// the host's byte order); each word is multiplied by an odd 64-bit constant,
// xor-shifted and multiplied again, then folded into the state, which is
// multiplied once more. The length is folded into the initial state, the
// last partial word is zero-padded, and splitmix64's finalizer avalanches
// the result. The serial chain is one xor and one multiply per 8 bytes,
// where byte-wise FNV-1a pays one multiply per byte.
//
// Not cryptographic: it catches accidental damage (bit flips, truncation),
// not a forger.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace plwg {

namespace hash_detail {

inline constexpr std::uint64_t kMul = 0xc6a4a7935bd1e995ULL;  // odd
inline constexpr int kShift = 47;

[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  }
  return v;
}

[[nodiscard]] inline std::uint64_t mix_word(std::uint64_t k) {
  k *= kMul;
  k ^= k >> kShift;
  return k * kMul;
}

}  // namespace hash_detail

/// Seeded 64-bit hash of `bytes`. Equal (bytes, seed) give equal values on
/// every host; the value is part of the transport wire format.
[[nodiscard]] inline std::uint64_t hash_bytes(
    std::span<const std::uint8_t> bytes, std::uint64_t seed = 0) {
  using hash_detail::kMul;
  using hash_detail::mix_word;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(n) * kMul);
  for (; n >= 8; n -= 8, p += 8) {
    h ^= mix_word(hash_detail::load_le64(p));
    h *= kMul;
  }
  if (n > 0) {
    std::uint64_t tail = 0;  // zero-padded last word
    for (std::size_t i = 0; i < n; ++i) tail |= std::uint64_t{p[i]} << (8 * i);
    h ^= mix_word(tail);
    h *= kMul;
  }
  // splitmix64 finalizer: every input bit reaches every output bit, so a
  // truncation to the low 32 bits keeps the whole input's influence.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace plwg
