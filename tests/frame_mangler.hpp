// Test-side frame corruption. The network delivers frames intact; tests of
// the demux's corruption handling capture the frames a NodeRuntime really
// puts on the wire with a FrameTap, mangle copies with corrupt_copy, and
// hand them straight to NodeRuntime::on_packet.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/network.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace plwg::transport::testing {

/// A network host that records every frame delivered to it, in order.
struct FrameTap : sim::NetHandler {
  void on_packet(NodeId, std::span<const std::uint8_t> data,
                 const BytesOwner&) override {
    frames.emplace_back(data.begin(), data.end());
  }
  std::vector<std::vector<std::uint8_t>> frames;
};

/// A corrupted copy of `data`: a truncated prefix (possibly empty) or one to
/// four random bit flips, chosen by `rng`.
inline std::vector<std::uint8_t> corrupt_copy(
    Rng& rng, const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> out = data;
  if (out.empty()) return out;
  if (rng.next_bool(0.5)) {
    out.resize(rng.next_below(out.size()));
  } else {
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      out[rng.next_below(out.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
  }
  return out;
}

}  // namespace plwg::transport::testing
