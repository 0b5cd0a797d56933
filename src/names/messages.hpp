// Wire protocol of the naming service (Port::kNaming).
//
// Client -> server: SET / READ / TESTSET requests (paper Table 2, extended
// with view-to-view mappings and genealogy).
// Server -> client: ACK / MAPPINGS responses and the MULTIPLE-MAPPINGS
// callback of paper Sect. 6.1.
// Server <-> server: full-state anti-entropy SYNC.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "names/mapping.hpp"
#include "util/codec.hpp"

namespace plwg::names {

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

  static constexpr auto kFields =
      std::tuple{&SetReqMsg::req_id, &SetReqMsg::lwg, &SetReqMsg::entry,
                 &SetReqMsg::predecessors};
};

struct ReadReqMsg {
  std::uint64_t req_id = 0;
  LwgId lwg;

  static constexpr auto kFields =
      std::tuple{&ReadReqMsg::req_id, &ReadReqMsg::lwg};
};

struct TestSetReqMsg {
  std::uint64_t req_id = 0;
  LwgId lwg;
  MappingEntry entry;

  static constexpr auto kFields = std::tuple{
      &TestSetReqMsg::req_id, &TestSetReqMsg::lwg, &TestSetReqMsg::entry};
};

struct AckMsg {
  std::uint64_t req_id = 0;

  static constexpr auto kFields = std::tuple{&AckMsg::req_id};
};

struct MappingsMsg {
  std::uint64_t req_id = 0;
  LwgId lwg;
  std::vector<MappingEntry> entries;

  static constexpr auto kFields = std::tuple{
      &MappingsMsg::req_id, &MappingsMsg::lwg, &MappingsMsg::entries};
};

struct MultipleMappingsMsg {
  LwgId lwg;
  std::vector<MappingEntry> entries;  // all alive mappings for the LWG

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

  static constexpr auto kFields = std::tuple{&SyncMsg::full, &SyncMsg::db};
};

}  // namespace plwg::names
