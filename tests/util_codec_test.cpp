#include "util/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace plwg {
namespace {

TEST(Codec, RoundTripsFixedWidthIntegers) {
  Encoder enc;
  enc.put_u8(0xAB);
  enc.put_u16(0xBEEF);
  enc.put_u32(0xDEADBEEF);
  enc.put_u64(0x0123456789ABCDEFULL);
  enc.put_i64(-42);
  enc.put_bool(true);
  enc.put_bool(false);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u8(), 0xAB);
  EXPECT_EQ(dec.get_u16(), 0xBEEF);
  EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(dec.get_i64(), -42);
  EXPECT_TRUE(dec.get_bool());
  EXPECT_FALSE(dec.get_bool());
  EXPECT_TRUE(dec.done());
}

TEST(Codec, RoundTripsStrongIds) {
  Encoder enc;
  enc.put_id(ProcessId{7});
  enc.put_id(HwgId{0xFFFF'FFFF'0000'0001ULL});
  enc.put_id(LwgId{12});

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_id<ProcessId>(), ProcessId{7});
  EXPECT_EQ(dec.get_id<HwgId>(), HwgId{0xFFFF'FFFF'0000'0001ULL});
  EXPECT_EQ(dec.get_id<LwgId>(), LwgId{12});
}

TEST(Codec, RoundTripsBytesAndStrings) {
  Encoder enc;
  const std::vector<std::uint8_t> blob{1, 2, 3, 250};
  enc.put_bytes(blob);
  enc.put_string("hello world");
  enc.put_string("");

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_bytes(), blob);
  EXPECT_EQ(dec.get_string(), "hello world");
  EXPECT_EQ(dec.get_string(), "");
  dec.expect_done();
}

TEST(Codec, PutRawAppendsWithoutPrefix) {
  Encoder inner;
  inner.put_u32(99);
  Encoder outer;
  outer.put_u8(1);
  outer.put_raw(inner.bytes());
  EXPECT_EQ(outer.size(), 5u);
  Decoder dec(outer.bytes());
  EXPECT_EQ(dec.get_u8(), 1);
  EXPECT_EQ(dec.get_u32(), 99u);
}

TEST(Codec, TruncatedIntegerThrows) {
  Encoder enc;
  enc.put_u16(7);
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_u32(), CodecError);
}

TEST(Codec, TruncatedBytesThrows) {
  Encoder enc;
  enc.put_u32(1000);  // claims 1000 bytes follow, none do
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_bytes(), CodecError);
}

TEST(Codec, ExpectDoneThrowsOnTrailingBytes) {
  Encoder enc;
  enc.put_u8(1);
  enc.put_u8(2);
  Decoder dec(enc.bytes());
  (void)dec.get_u8();
  EXPECT_THROW(dec.expect_done(), CodecError);
}

TEST(Codec, InvalidIdRoundTrips) {
  Encoder enc;
  enc.put_id(ProcessId::invalid());
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.get_id<ProcessId>().valid());
}

// --- get_count validation ----------------------------------------------------

TEST(Codec, GetCountZeroElementsIsValid) {
  Encoder enc;
  enc.put_u32(0);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_count(8), 0u);
  dec.expect_done();
}

TEST(Codec, GetCountZeroMinElementBytesSkipsValidation) {
  // A zero per-element floor means "elements may be zero-size"; the count
  // itself must still decode, however large.
  Encoder enc;
  enc.put_u32(0xFFFFFFFF);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_count(0), 0xFFFFFFFFu);
}

TEST(Codec, GetCountExactFitPasses) {
  Encoder enc;
  enc.put_u32(3);
  for (int i = 0; i < 3; ++i) enc.put_u64(static_cast<std::uint64_t>(i));
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_count(8), 3u);
}

TEST(Codec, GetCountOneTooManyThrows) {
  Encoder enc;
  enc.put_u32(4);  // claims 4 elements, only 3 follow
  for (int i = 0; i < 3; ++i) enc.put_u64(static_cast<std::uint64_t>(i));
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_count(8), CodecError);
}

TEST(Codec, GetCountHugeCountThrowsInsteadOfOverflowing) {
  // n * min_element_bytes would wrap a 32-bit product; the division-based
  // check must still reject the count.
  Encoder enc;
  enc.put_u32(0xFFFFFFFF);
  enc.put_u64(0);
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_count(8), CodecError);
}

TEST(Codec, GetCountHugeMinElementBytesThrows) {
  Encoder enc;
  enc.put_u32(2);
  enc.put_u64(0);
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_count(~std::size_t{0}), CodecError);
}

// --- zero-copy byte views ----------------------------------------------------

TEST(Codec, GetBytesViewAliasesInputBuffer) {
  Encoder enc;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  enc.put_bytes(payload);
  enc.put_u8(0x7E);
  const auto& wire = enc.bytes();
  Decoder dec(wire);
  const auto view = dec.get_bytes_view();
  ASSERT_EQ(view.size(), payload.size());
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin()));
  // The span points into the encoder's buffer — no copy was made.
  EXPECT_EQ(view.data(), wire.data() + 4);
  EXPECT_EQ(dec.get_u8(), 0x7E);
  dec.expect_done();
}

TEST(Codec, GetBytesViewEmpty) {
  Encoder enc;
  enc.put_bytes({});
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.get_bytes_view().empty());
  dec.expect_done();
}

TEST(Codec, GetBytesViewTruncatedThrows) {
  Encoder enc;
  enc.put_u32(10);  // claims 10 bytes, none follow
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_bytes_view(), CodecError);
}

// --- bulk u64 spans ----------------------------------------------------------

TEST(Codec, U64SpanRoundTrips) {
  std::vector<std::uint64_t> vals{0, 1, 0xDEADBEEF, ~std::uint64_t{0},
                                  0x0123456789ABCDEFULL};
  Encoder enc;
  enc.put_u32(static_cast<std::uint32_t>(vals.size()));
  enc.put_u64_span(vals);
  Decoder dec(enc.bytes());
  std::vector<std::uint64_t> out(dec.get_count(8));
  dec.get_u64_span(out);
  EXPECT_EQ(out, vals);
  dec.expect_done();
}

TEST(Codec, U64SpanMatchesPerElementEncoding) {
  // The bulk path must be wire-compatible with a put_u64 loop.
  const std::vector<std::uint64_t> vals{1, 2, 3};
  Encoder bulk;
  bulk.put_u64_span(vals);
  Encoder loop;
  for (std::uint64_t v : vals) loop.put_u64(v);
  EXPECT_EQ(bulk.bytes(), loop.bytes());
}

TEST(Codec, EmptyU64SpanRoundTripsThroughFreshEncoder) {
  // A fresh encoder's buffer and an empty vector both have a null data();
  // the empty-span case must not hand those to memcpy.
  const std::vector<std::uint64_t> none;
  Encoder enc;
  enc.put_u64_span(none);
  EXPECT_EQ(enc.size(), 0u);
  Decoder dec(enc.bytes());
  std::vector<std::uint64_t> out;
  dec.get_u64_span(out);
  EXPECT_TRUE(out.empty());
  dec.expect_done();
}

TEST(Codec, U64SpanTruncatedThrows) {
  Encoder enc;
  enc.put_u64(7);
  Decoder dec(enc.bytes());
  std::vector<std::uint64_t> out(2);
  EXPECT_THROW(dec.get_u64_span(out), CodecError);
}

// --- encoder reuse -----------------------------------------------------------

TEST(Codec, EncoderClearKeepsReusableBuffer) {
  Encoder enc;
  enc.reserve(64);
  enc.put_u64(0x1111111111111111ULL);
  EXPECT_EQ(enc.size(), 8u);
  enc.clear();
  EXPECT_EQ(enc.size(), 0u);
  enc.put_u32(0x22222222);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u32(), 0x22222222u);
  dec.expect_done();
}

}  // namespace
}  // namespace plwg
