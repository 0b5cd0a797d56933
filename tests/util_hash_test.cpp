#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string_view>
#include <vector>

namespace plwg {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> iota_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i);
  return out;
}

TEST(HashBytes, KnownAnswers) {
  // Part of the transport wire format: these values may only change
  // together with the frame checksum.
  EXPECT_EQ(hash_bytes({}), 0x0000000000000000ULL);
  EXPECT_EQ(hash_bytes({}, 1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(hash_bytes(bytes_of("abc")), 0xfc655922724ac7a1ULL);
  EXPECT_EQ(hash_bytes(iota_bytes(16)), 0x2375a70f9c45192aULL);
  EXPECT_EQ(hash_bytes(iota_bytes(19), 0x0102030405060708ULL),
            0x8d8b418b4759d09dULL);
}

TEST(HashBytes, AllZeroInputsOfEveryLengthAreDistinct) {
  // Zero words and a zero-padded tail add nothing by themselves, so only
  // the folded-in length can tell these apart.
  const std::vector<std::uint8_t> zeros(24, 0);
  for (std::uint64_t seed : {0ULL, 7ULL}) {
    std::set<std::uint64_t> seen;
    for (std::size_t n = 0; n <= zeros.size(); ++n) {
      seen.insert(hash_bytes(std::span(zeros).first(n), seed));
    }
    EXPECT_EQ(seen.size(), zeros.size() + 1) << "seed " << seed;
  }
}

TEST(HashBytes, SeedChangesTheResult) {
  const auto data = iota_bytes(37);
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    seen.insert(hash_bytes(data, seed));
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(HashBytes, UnalignedSpanHashesLikeAligned) {
  const auto data = iota_bytes(29);
  alignas(8) std::uint8_t buf[64] = {};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::memcpy(buf + offset, data.data(), data.size());
    EXPECT_EQ(hash_bytes(std::span(buf + offset, data.size()), 3),
              hash_bytes(data, 3))
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace plwg
