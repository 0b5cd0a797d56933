// Order-sensitive digest of a simulation's observable trace.
//
// FNV-1a folded over every final packet delivery (time, endpoints, size,
// optionally payload bytes) in the order the destination site executed
// them. Per-site digests are combined in fixed site order together with
// each site's executed-event count, so the combined value pins both the
// delivery trace and the timer-event schedule. Two runs with the same seed
// must produce the same combined digest — the determinism contract of
// sim::Engine, enforced by tests/determinism_test.cpp.
#pragma once

#include <cstdint>
#include <span>

#include "util/types.hpp"

namespace plwg::sim {

class TraceDigest {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  void fold_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (v & 0xFF)) * kPrime;
      v >>= 8;
    }
  }

  void fold_bytes(std::span<const std::uint8_t> bytes) {
    for (std::uint8_t b : bytes) hash_ = (hash_ ^ b) * kPrime;
  }

  /// One final delivery (handler about to run) at the destination site.
  void record_delivery(Time t, NodeId from, NodeId to, std::size_t size) {
    fold_u64(static_cast<std::uint64_t>(t));
    fold_u64((static_cast<std::uint64_t>(from.value()) << 32) | to.value());
    fold_u64(size);
    ++deliveries_;
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }

  /// Fold another digest (and its delivery count) into this one — used to
  /// combine per-site digests in site-index order.
  void combine(const TraceDigest& other) {
    fold_u64(other.hash_);
    fold_u64(other.deliveries_);
  }

 private:
  std::uint64_t hash_ = kOffset;
  std::uint64_t deliveries_ = 0;
};

}  // namespace plwg::sim
