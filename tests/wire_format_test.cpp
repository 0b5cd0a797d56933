// Wire-format pins: one known-answer encoding per wire type, built from
// fixed field values with non-empty collections. The simulator charges
// every message's encoded size against link bandwidth and the golden
// digests fold delivered frame bytes, so the bytes below are part of the
// reproduction: a codec change that moves any of them is a format change,
// not a refactor.
//
// Every type also round-trips exactly (encode(decode(bytes)) == bytes),
// reports its encoded length as its derived size, has the empty encoding
// as its count floor, rejects every truncation and a trailing byte, and
// survives random garbage (decode or CodecError, nothing else). Every
// message also carries its tag's literal wire value in kType, and its
// layer's envelope is the tag then the pinned fields.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "lwg/messages.hpp"
#include "names/messages.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "vsync/messages.hpp"

namespace plwg {
namespace {

// --- the codec under test -------------------------------------------------

template <class T>
std::vector<std::uint8_t> encode_bytes(const T& v) {
  Encoder enc;
  enc.put(v);
  return enc.take();
}

/// Decodes a whole entry: trailing bytes are an error.
template <class T>
T decode_bytes(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  return dec.get_exact<T>();
}

// --- fixed sample values ----------------------------------------------------

vsync::ViewId vid(std::uint32_t c, std::uint32_t s, std::uint32_t d = 0) {
  return vsync::ViewId{ProcessId{c}, s, d};
}

MemberSet members(std::initializer_list<std::uint32_t> ids) {
  std::vector<ProcessId> out;
  for (std::uint32_t id : ids) out.push_back(ProcessId{id});
  return MemberSet{std::move(out)};
}

vsync::OrderedMsg ordered(std::uint64_t seq) {
  return {seq, ProcessId{5}, seq + 100, {9, 8, 7}};
}

lwg::LwgView lwg_view() { return {vid(4, 4, 4), members({4, 5}), HwgId{99}}; }

lwg::LwgViewInfo view_info() {
  return {LwgId{7}, lwg_view(), {vid(2, 6), vid(0, 3, 99)}};
}

names::MappingEntry entry(std::uint32_t seq) {
  return {vid(0, seq), members({0, 2}), HwgId{17}, vid(1, seq + 1),
          members({0, 1, 2}), 6};
}

names::LwgRecord record() {
  names::LwgRecord rec;
  for (std::uint32_t seq : {2, 3}) rec.entries.emplace(vid(0, seq), entry(seq));
  rec.superseded = {vid(0, 1), vid(2, 9)};
  return rec;
}

names::Database database() {
  names::Database db;
  db.records.emplace(LwgId{5}, record());
  db.records.emplace(LwgId{8}, names::LwgRecord{});
  return db;
}

const std::vector<std::uint8_t> kPayload{0xDE, 0xAD, 0xBE, 0xEF};

// One Case per wire type: a name, a fixed value, and its known encoding.
template <class T>
struct Case;

#define WIRE_CASE(Type, hex, ...)                                 \
  template <>                                                     \
  struct Case<Type> {                                             \
    static constexpr const char* kName = #Type;                   \
    static constexpr const char* kHex = hex;                      \
    static Type value() { return __VA_ARGS__; }                   \
  }

using namespace vsync;  // NOLINT: the vsync names read as the wire types
WIRE_CASE(ViewId,
          "030000000900000007000000",
          vid(3, 9, 7));
WIRE_CASE(View,
          "01000000050000004d000000020000000100000002000000"
          "020000000100000004000000000000000900000002000000"
          "00000000",
          View{vid(1, 5, 77), members({1, 2}), {vid(1, 4), vid(9, 2)}});
WIRE_CASE(MemberSet,
          "03000000010000000400000006000000",
          members({1, 4, 6}));
WIRE_CASE(OrderedMsg,
          "0700000000000000050000006b0000000000000003000000"
          "090807",
          ordered(7));
WIRE_CASE(JoinReqMsg,
          "06000000",
          JoinReqMsg{ProcessId{6}});
WIRE_CASE(LeaveReqMsg,
          "06000000",
          LeaveReqMsg{ProcessId{6}});
WIRE_CASE(SendReqMsg,
          "010000000200000000000000030000002900000000000000"
          "280000000000000003000000010203",
          SendReqMsg{vid(1, 2), ProcessId{3}, 41, 40, {1, 2, 3}});
WIRE_CASE(OrderedMsgWire,
          "010000000200000000000000060000000000000007000000"
          "00000000050000006b0000000000000003000000090807",
          OrderedMsgWire{vid(1, 2), 6, ordered(7)});
WIRE_CASE(NackMsg,
          "010000000200000000000000030000000300000000000000"
          "05000000000000000800000000000000",
          NackMsg{vid(1, 2), {3, 5, 8}});
WIRE_CASE(HeartbeatMsg,
          "010000000200000000000000030000000900000000000000"
          "08000000000000000700000000000000",
          HeartbeatMsg{vid(1, 2), ProcessId{3}, 9, 8, 7});
WIRE_CASE(FlushReqMsg,
          "010000000200000000000000040000000100000002000000"
          "0100000003000000",
          FlushReqMsg{vid(1, 2), 4, ProcessId{1}, members({1, 3})});
WIRE_CASE(FlushAckMsg,
          "010000000200000000000000040000000300000003000000"
          "010000000000000002000000000000000400000000000000",
          FlushAckMsg{vid(1, 2), 4, ProcessId{3}, {1, 2, 4}});
WIRE_CASE(FlushRejectMsg,
          "010000000200000000000000040000000300000001000000"
          "02000000",
          FlushRejectMsg{vid(1, 2), 4, ProcessId{3}, members({2})});
WIRE_CASE(FetchMsg,
          "010000000200000000000000040000000200000003000000"
          "000000000700000000000000",
          FetchMsg{vid(1, 2), 4, {3, 7}});
WIRE_CASE(FetchReplyMsg,
          "010000000200000000000000040000000200000003000000"
          "000000000500000067000000000000000300000009080707"
          "00000000000000050000006b000000000000000300000009"
          "0807",
          FetchReplyMsg{vid(1, 2), 4, {ordered(3), ordered(7)}});
WIRE_CASE(FlushCutMsg,
          "010000000200000000000000040000000300000001000000"
          "000000000200000000000000030000000000000001000000"
          "030000000000000005000000670000000000000003000000"
          "090807",
          FlushCutMsg{vid(1, 2), 4, {1, 2, 3}, {ordered(3)}});
WIRE_CASE(FlushDoneMsg,
          "0100000002000000000000000400000003000000",
          FlushDoneMsg{vid(1, 2), 4, ProcessId{3}});
WIRE_CASE(NewViewMsg,
          "010000000300000000000000020000000100000002000000"
          "010000000100000002000000000000000100000004000000",
          NewViewMsg{View{vid(1, 3), members({1, 2}), {vid(1, 2)}},
                     members({4})});
WIRE_CASE(MergeProbeMsg,
          "010000000200000000000000010000000200000001000000"
          "02000000",
          MergeProbeMsg{vid(1, 2), ProcessId{1}, members({1, 2})});
WIRE_CASE(MergeReplyMsg,
          "010000000200000000000000010000000200000001000000"
          "02000000",
          MergeReplyMsg{{vid(1, 2), ProcessId{1}, members({1, 2})}});
WIRE_CASE(MergeStartMsg,
          "050000000100000002000000010000000200000000000000"
          "040000000300000000000000",
          MergeStartMsg{5, ProcessId{1}, {vid(1, 2), vid(4, 3)}});
WIRE_CASE(MergeFlushedMsg,
          "050000000400000003000000000000000400000002000000"
          "0400000005000000",
          MergeFlushedMsg{5, vid(4, 3), ProcessId{4}, members({4, 5})});
WIRE_CASE(MergeAbortMsg,
          "05000000",
          MergeAbortMsg{5});

WIRE_CASE(lwg::LwgView,
          "040000000400000004000000020000000400000005000000"
          "6300000000000000",
          lwg_view());
WIRE_CASE(lwg::LwgViewInfo,
          "070000000000000004000000040000000400000002000000"
          "040000000500000063000000000000000200000002000000"
          "0600000000000000000000000300000063000000",
          view_info());
WIRE_CASE(lwg::DataMsg,
          "0c0000000000000002000000030000000000000004000000"
          "deadbeef",
          lwg::DataMsg{LwgId{12}, vid(2, 3), kPayload});
WIRE_CASE(lwg::JoinMsg,
          "0c0000000000000003000000",
          lwg::JoinMsg{LwgId{12}, ProcessId{3}});
WIRE_CASE(lwg::LeaveMsg,
          "0c0000000000000003000000",
          lwg::LeaveMsg{LwgId{12}, ProcessId{3}});
WIRE_CASE(lwg::ViewMsg,
          "070000000000000004000000040000000400000002000000"
          "040000000500000063000000000000000200000004000000"
          "0300000000000000050000000100000000000000",
          lwg::ViewMsg{LwgId{7}, lwg_view(), {vid(4, 3), vid(5, 1)}});
WIRE_CASE(lwg::SwitchMsg,
          "0c00000000000000020000000300000000000000efcdab00"
          "00000000020000000000000004000000",
          lwg::SwitchMsg{LwgId{12}, vid(2, 3), HwgId{0xABCDEF},
                         members({0, 4})});
WIRE_CASE(lwg::SwitchReadyMsg,
          "0c0000000000000002000000030000000000000004000000",
          lwg::SwitchReadyMsg{LwgId{12}, vid(2, 3), ProcessId{4}});
WIRE_CASE(lwg::SwitchedMsg,
          "0c00000000000000efcdab00000000000200000000000000"
          "04000000",
          lwg::SwitchedMsg{LwgId{12}, HwgId{0xABCDEF}, members({0, 4})});
WIRE_CASE(lwg::RedirectMsg,
          "0c0000000000000006000000efcdab000000000002000000"
          "0000000004000000",
          lwg::RedirectMsg{LwgId{12}, ProcessId{6}, HwgId{0xABCDEF},
                           members({0, 4})});
WIRE_CASE(lwg::MergeViewsMsg,
          "",
          lwg::MergeViewsMsg{});
WIRE_CASE(lwg::AnnounceMsg,
          "020000000700000000000000040000000400000004000000"
          "020000000400000005000000630000000000000002000000"
          "020000000600000000000000000000000300000063000000"
          "090000000000000004000000040000000400000002000000"
          "0400000005000000630000000000000000000000",
          lwg::AnnounceMsg{
              {view_info(), lwg::LwgViewInfo{LwgId{9}, lwg_view(), {}}}});

WIRE_CASE(names::MappingEntry,
          "000000000200000000000000020000000000000002000000"
          "110000000000000001000000030000000000000003000000"
          "0000000001000000020000000600000000000000",
          entry(2));
WIRE_CASE(names::LwgRecord,
          "020000000000000002000000000000000200000000000000"
          "020000001100000000000000010000000300000000000000"
          "030000000000000001000000020000000600000000000000"
          "000000000300000000000000020000000000000002000000"
          "110000000000000001000000040000000000000003000000"
          "000000000100000002000000060000000000000002000000"
          "000000000100000000000000020000000900000000000000",
          record());
WIRE_CASE(names::Database,
          "020000000500000000000000020000000000000002000000"
          "000000000200000000000000020000001100000000000000"
          "010000000300000000000000030000000000000001000000"
          "020000000600000000000000000000000300000000000000"
          "020000000000000002000000110000000000000001000000"
          "040000000000000003000000000000000100000002000000"
          "060000000000000002000000000000000100000000000000"
          "020000000900000000000000080000000000000000000000"
          "00000000",
          database());
WIRE_CASE(names::SetReqMsg,
          "d20400000000000005000000000000000000000002000000"
          "000000000200000000000000020000001100000000000000"
          "010000000300000000000000030000000000000001000000"
          "020000000600000000000000010000000000000001000000"
          "00000000",
          names::SetReqMsg{1234, LwgId{5}, entry(2), {vid(0, 1)}});
WIRE_CASE(names::ReadReqMsg,
          "d2040000000000000500000000000000",
          names::ReadReqMsg{1234, LwgId{5}});
WIRE_CASE(names::TestSetReqMsg,
          "d20400000000000005000000000000000000000002000000"
          "000000000200000000000000020000001100000000000000"
          "010000000300000000000000030000000000000001000000"
          "020000000600000000000000",
          names::TestSetReqMsg{1234, LwgId{5}, entry(2)});
WIRE_CASE(names::AckMsg,
          "d204000000000000",
          names::AckMsg{1234});
WIRE_CASE(names::MappingsMsg,
          "d20400000000000005000000000000000200000000000000"
          "020000000000000002000000000000000200000011000000"
          "000000000100000003000000000000000300000000000000"
          "010000000200000006000000000000000000000001000000"
          "000000000200000000000000020000001100000000000000"
          "010000000200000000000000030000000000000001000000"
          "020000000600000000000000",
          names::MappingsMsg{1234, LwgId{5}, {entry(2), entry(1)}});
WIRE_CASE(names::MultipleMappingsMsg,
          "050000000000000002000000000000000200000000000000"
          "020000000000000002000000110000000000000001000000"
          "030000000000000003000000000000000100000002000000"
          "060000000000000000000000010000000000000002000000"
          "000000000200000011000000000000000100000002000000"
          "000000000300000000000000010000000200000006000000"
          "00000000",
          names::MultipleMappingsMsg{LwgId{5}, {entry(2), entry(1)}});
WIRE_CASE(names::SyncMsg,
          "000200000005000000000000000200000000000000020000"
          "000000000002000000000000000200000011000000000000"
          "000100000003000000000000000300000000000000010000"
          "000200000006000000000000000000000003000000000000"
          "000200000000000000020000001100000000000000010000"
          "000400000000000000030000000000000001000000020000"
          "000600000000000000020000000000000001000000000000"
          "000200000009000000000000000800000000000000000000"
          "0000000000",
          names::SyncMsg{false, database()});

#undef WIRE_CASE

using WireTypes = ::testing::Types<
    ViewId, View, MemberSet, OrderedMsg, JoinReqMsg, LeaveReqMsg, SendReqMsg,
    OrderedMsgWire, NackMsg, HeartbeatMsg, FlushReqMsg, FlushAckMsg,
    FlushRejectMsg, FetchMsg, FetchReplyMsg, FlushCutMsg, FlushDoneMsg,
    NewViewMsg, MergeProbeMsg, MergeReplyMsg, MergeStartMsg, MergeFlushedMsg,
    MergeAbortMsg, lwg::LwgView, lwg::LwgViewInfo, lwg::DataMsg, lwg::JoinMsg, lwg::LeaveMsg,
    lwg::ViewMsg, lwg::SwitchMsg, lwg::SwitchReadyMsg, lwg::SwitchedMsg,
    lwg::RedirectMsg, lwg::MergeViewsMsg, lwg::AnnounceMsg, names::MappingEntry,
    names::LwgRecord, names::Database, names::SetReqMsg, names::ReadReqMsg,
    names::TestSetReqMsg, names::AckMsg, names::MappingsMsg,
    names::MultipleMappingsMsg, names::SyncMsg>;

struct WireTypeName {
  template <class T>
  static std::string GetName(int) {
    const std::string_view name = Case<T>::kName;
    return std::string(name.substr(name.rfind(':') + 1));
  }
};

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 |
                                            nibble(hex[i + 1])));
  }
  return out;
}

template <class T>
class WireFormat : public ::testing::Test {};
TYPED_TEST_SUITE(WireFormat, WireTypes, WireTypeName);

TYPED_TEST(WireFormat, EncodesToTheKnownAnswer) {
  EXPECT_EQ(to_hex(encode_bytes(Case<TypeParam>::value())),
            Case<TypeParam>::kHex);
}

TYPED_TEST(WireFormat, RoundTripsExactly) {
  const std::vector<std::uint8_t> bytes = from_hex(Case<TypeParam>::kHex);
  EXPECT_EQ(to_hex(encode_bytes(decode_bytes<TypeParam>(bytes))),
            Case<TypeParam>::kHex);
}

TYPED_TEST(WireFormat, SizeIsTheEncodedLength) {
  const TypeParam v = Case<TypeParam>::value();
  EXPECT_EQ(encoded_size(v), encode_bytes(v).size());
}

// The count floor Decoder::get_count checks per element is the encoding of
// a value with every collection empty.
TYPED_TEST(WireFormat, MinSizeIsTheEmptyEncoding) {
  EXPECT_EQ(min_encoded_size<TypeParam>(), encode_bytes(TypeParam{}).size());
}

TYPED_TEST(WireFormat, EveryTruncationThrows) {
  const std::vector<std::uint8_t> bytes = from_hex(Case<TypeParam>::kHex);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)decode_bytes<TypeParam>(std::span(bytes).first(n)),
                 CodecError)
        << "prefix of " << n << " bytes";
  }
}

TYPED_TEST(WireFormat, TrailingByteThrows) {
  std::vector<std::uint8_t> bytes = from_hex(Case<TypeParam>::kHex);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_bytes<TypeParam>(bytes), CodecError);
}

// The CodecFuzz.*SurviveGarbage loop, for every type: random input either
// decodes or throws CodecError.
TYPED_TEST(WireFormat, SurvivesGarbage) {
  const std::string_view name = Case<TypeParam>::kName;
  Rng rng(hash_bytes(std::span(
      reinterpret_cast<const std::uint8_t*>(name.data()), name.size())));
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> bytes(rng.next_below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    try {
      (void)decode_bytes<TypeParam>(bytes);
    } catch (const CodecError&) {
      // expected for malformed input
    }
  }
}

// --- message tags and envelopes ---------------------------------------------

// The tag every message is sent under, as literal wire values. A message
// declaring the wrong kType fails here even if no golden run sends it.
template <class M>
constexpr std::uint8_t kWireTag = 0;
template <> constexpr std::uint8_t kWireTag<JoinReqMsg> = 1;
template <> constexpr std::uint8_t kWireTag<LeaveReqMsg> = 2;
template <> constexpr std::uint8_t kWireTag<SendReqMsg> = 3;
template <> constexpr std::uint8_t kWireTag<OrderedMsgWire> = 4;
template <> constexpr std::uint8_t kWireTag<NackMsg> = 5;
template <> constexpr std::uint8_t kWireTag<HeartbeatMsg> = 6;
template <> constexpr std::uint8_t kWireTag<FlushReqMsg> = 7;
template <> constexpr std::uint8_t kWireTag<FlushAckMsg> = 8;
template <> constexpr std::uint8_t kWireTag<FlushRejectMsg> = 9;
template <> constexpr std::uint8_t kWireTag<FetchMsg> = 10;
template <> constexpr std::uint8_t kWireTag<FetchReplyMsg> = 11;
template <> constexpr std::uint8_t kWireTag<FlushCutMsg> = 12;
template <> constexpr std::uint8_t kWireTag<FlushDoneMsg> = 13;
template <> constexpr std::uint8_t kWireTag<NewViewMsg> = 14;
template <> constexpr std::uint8_t kWireTag<MergeProbeMsg> = 15;
template <> constexpr std::uint8_t kWireTag<MergeReplyMsg> = 16;
template <> constexpr std::uint8_t kWireTag<MergeStartMsg> = 17;
template <> constexpr std::uint8_t kWireTag<MergeFlushedMsg> = 18;
template <> constexpr std::uint8_t kWireTag<MergeAbortMsg> = 19;
template <> constexpr std::uint8_t kWireTag<lwg::DataMsg> = 1;
template <> constexpr std::uint8_t kWireTag<lwg::JoinMsg> = 2;
template <> constexpr std::uint8_t kWireTag<lwg::LeaveMsg> = 3;
template <> constexpr std::uint8_t kWireTag<lwg::ViewMsg> = 4;
template <> constexpr std::uint8_t kWireTag<lwg::SwitchMsg> = 5;
template <> constexpr std::uint8_t kWireTag<lwg::SwitchReadyMsg> = 6;
template <> constexpr std::uint8_t kWireTag<lwg::SwitchedMsg> = 7;
template <> constexpr std::uint8_t kWireTag<lwg::RedirectMsg> = 8;
template <> constexpr std::uint8_t kWireTag<lwg::MergeViewsMsg> = 9;
template <> constexpr std::uint8_t kWireTag<lwg::AnnounceMsg> = 11;
template <> constexpr std::uint8_t kWireTag<names::SetReqMsg> = 1;
template <> constexpr std::uint8_t kWireTag<names::ReadReqMsg> = 2;
template <> constexpr std::uint8_t kWireTag<names::TestSetReqMsg> = 3;
template <> constexpr std::uint8_t kWireTag<names::AckMsg> = 4;
template <> constexpr std::uint8_t kWireTag<names::MappingsMsg> = 5;
template <> constexpr std::uint8_t kWireTag<names::MultipleMappingsMsg> = 6;
template <> constexpr std::uint8_t kWireTag<names::SyncMsg> = 7;

using MessageTypes = ::testing::Types<
    JoinReqMsg, LeaveReqMsg, SendReqMsg, OrderedMsgWire, NackMsg, HeartbeatMsg,
    FlushReqMsg, FlushAckMsg, FlushRejectMsg, FetchMsg, FetchReplyMsg,
    FlushCutMsg, FlushDoneMsg, NewViewMsg, MergeProbeMsg, MergeReplyMsg,
    MergeStartMsg, MergeFlushedMsg, MergeAbortMsg, lwg::DataMsg, lwg::JoinMsg,
    lwg::LeaveMsg, lwg::ViewMsg, lwg::SwitchMsg, lwg::SwitchReadyMsg,
    lwg::SwitchedMsg, lwg::RedirectMsg, lwg::MergeViewsMsg, lwg::AnnounceMsg,
    names::SetReqMsg, names::ReadReqMsg, names::TestSetReqMsg, names::AckMsg,
    names::MappingsMsg, names::MultipleMappingsMsg, names::SyncMsg>;

/// `msg` in its layer's envelope; a vsync message is sent in group 0xAB.
template <class M>
std::vector<std::uint8_t> envelope_bytes(const M& msg) {
  using Tag = std::remove_const_t<decltype(M::kType)>;
  if constexpr (std::is_same_v<Tag, MsgType>) {
    Encoder enc;
    return encode_envelope(enc, HwgId{0xAB}, msg).bytes();
  } else if constexpr (std::is_same_v<Tag, lwg::LwgMsgType>) {
    return lwg::encode_envelope(msg);
  } else {
    return names::encode_envelope(msg).take();
  }
}

template <class M>
class WireTag : public ::testing::Test {};
TYPED_TEST_SUITE(WireTag, MessageTypes, WireTypeName);

TYPED_TEST(WireTag, KTypeIsTheWireValue) {
  EXPECT_EQ(static_cast<std::uint8_t>(TypeParam::kType), kWireTag<TypeParam>);
}

// vsync: [u64 gid][u8 tag][fields]; LWG and naming: [u8 tag][fields].
TYPED_TEST(WireTag, EnvelopeIsTheTagThenTheFields) {
  const bool vsync = std::is_same_v<
      std::remove_const_t<decltype(TypeParam::kType)>, MsgType>;
  const std::vector<std::uint8_t> tag{kWireTag<TypeParam>};
  EXPECT_EQ(to_hex(envelope_bytes(Case<TypeParam>::value())),
            (vsync ? "ab00000000000000" : "") + to_hex(tag) +
                Case<TypeParam>::kHex);
}

}  // namespace
}  // namespace plwg
