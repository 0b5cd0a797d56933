// Wire protocol of the naming service (Port::kNaming).
//
// Client -> server: SET / READ / TESTSET requests (paper Table 2, extended
// with view-to-view mappings and genealogy).
// Server -> client: ACK / MAPPINGS responses and the MULTIPLE-MAPPINGS
// callback of paper Sect. 6.1.
// Server <-> server: full-state anti-entropy SYNC.
//
// Every packet is one message in its envelope, [u8 M::kType][M's fields]
// (encode_envelope below); each message declares its tag (kType) next to
// its field list.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "names/mapping.hpp"
#include "util/codec.hpp"

namespace plwg::names {

/// The wire values of the message tags; each message names its own in kType.
enum class NamingMsgType : std::uint8_t {
  kSetReq = 1,
  kReadReq,
  kTestSetReq,
  kAck,            // response to kSetReq
  kMappings,       // response to kReadReq / kTestSetReq
  kMultipleMappings,  // server-initiated conflict callback
  kSync,           // server-to-server anti-entropy
};

struct SetReqMsg {
  std::uint64_t req_id = 0;
  LwgId lwg;
  MappingEntry entry;
  std::vector<ViewId> predecessors;

  static constexpr NamingMsgType kType = NamingMsgType::kSetReq;
  static constexpr auto kFields =
      std::tuple{&SetReqMsg::req_id, &SetReqMsg::lwg, &SetReqMsg::entry,
                 &SetReqMsg::predecessors};
};

struct ReadReqMsg {
  std::uint64_t req_id = 0;
  LwgId lwg;

  static constexpr NamingMsgType kType = NamingMsgType::kReadReq;
  static constexpr auto kFields =
      std::tuple{&ReadReqMsg::req_id, &ReadReqMsg::lwg};
};

struct TestSetReqMsg {
  std::uint64_t req_id = 0;
  LwgId lwg;
  MappingEntry entry;

  static constexpr NamingMsgType kType = NamingMsgType::kTestSetReq;
  static constexpr auto kFields = std::tuple{
      &TestSetReqMsg::req_id, &TestSetReqMsg::lwg, &TestSetReqMsg::entry};
};

struct AckMsg {
  std::uint64_t req_id = 0;

  static constexpr NamingMsgType kType = NamingMsgType::kAck;
  static constexpr auto kFields = std::tuple{&AckMsg::req_id};
};

struct MappingsMsg {
  std::uint64_t req_id = 0;
  LwgId lwg;
  std::vector<MappingEntry> entries;

  static constexpr NamingMsgType kType = NamingMsgType::kMappings;
  static constexpr auto kFields = std::tuple{
      &MappingsMsg::req_id, &MappingsMsg::lwg, &MappingsMsg::entries};
};

struct MultipleMappingsMsg {
  LwgId lwg;
  std::vector<MappingEntry> entries;  // all alive mappings for the LWG

  static constexpr NamingMsgType kType = NamingMsgType::kMultipleMappings;
  static constexpr auto kFields =
      std::tuple{&MultipleMappingsMsg::lwg, &MultipleMappingsMsg::entries};
};

struct SyncMsg {
  /// True for a periodic full-state exchange; false for a delta carrying
  /// only the records the sender changed since its last sync. Merge
  /// semantics are identical either way (anti-entropy is a union, so a
  /// delta is just a partial database) — the flag exists for accounting.
  bool full = true;
  Database db;

  static constexpr NamingMsgType kType = NamingMsgType::kSync;
  static constexpr auto kFields = std::tuple{&SyncMsg::full, &SyncMsg::db};
};

/// `msg` as one Port::kNaming packet: [u8 M::kType][M's fields].
template <class M>
Encoder encode_envelope(const M& msg) {
  Encoder out;
  out.reserve(1 + encoded_size(msg));
  out.put_u8(static_cast<std::uint8_t>(M::kType));
  out.put(msg);
  return out;
}

}  // namespace plwg::names
