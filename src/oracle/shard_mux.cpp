#include "oracle/shard_mux.hpp"

#include <algorithm>
#include <utility>

namespace plwg::oracle {

void ShardedObserverMux::drain() {
  // Merge order (t, site, ring position): each ring is already
  // time-ordered (a site's clock is monotone), so a stable sort on time
  // alone — after concatenating rings in site order — yields the
  // deterministic total order.
  struct Indexed {
    Time t;
    std::size_t rank;  // append rank in (site, ring position) order
    UniqueFunction* fn;
  };
  std::vector<Indexed> merged;
  std::size_t total = 0;
  for (const auto& ring : rings_) total += ring.size();
  if (total == 0) return;
  merged.reserve(total);
  std::size_t rank = 0;
  for (auto& ring : rings_) {
    for (Entry& e : ring) merged.push_back(Indexed{e.t, rank++, &e.replay});
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Indexed& a, const Indexed& b) { return a.t < b.t; });
  replaying_ = true;
  for (Indexed& item : merged) {
    replay_time_ = item.t;
    (*item.fn)();
  }
  replaying_ = false;
  for (auto& ring : rings_) ring.clear();
}

void ShardedObserverMux::on_hwg_view_installed(ProcessId p, HwgId gid,
                                               const vsync::View& view) {
  dispatch([&oracle = oracle_, p, gid, view] {
    oracle.on_hwg_view_installed(p, gid, view);
  });
}

void ShardedObserverMux::on_hwg_delivered(
    ProcessId p, HwgId gid, const vsync::ViewId& view, std::uint64_t seq,
    ProcessId origin, std::uint64_t sender_msg_id,
    std::span<const std::uint8_t> payload) {
  dispatch([&oracle = oracle_, p, gid, view, seq, origin, sender_msg_id,
            key = ProtocolOracle::payload_key(payload)] {
    oracle.on_hwg_delivered_key(p, gid, view, seq, origin, sender_msg_id,
                                key);
  });
}

void ShardedObserverMux::on_hwg_flush_completed(ProcessId p, HwgId gid,
                                                const vsync::ViewId& old_view,
                                                bool initiator) {
  dispatch([&oracle = oracle_, p, gid, old_view, initiator] {
    oracle.on_hwg_flush_completed(p, gid, old_view, initiator);
  });
}

void ShardedObserverMux::on_hwg_endpoint_reset(ProcessId p, HwgId gid) {
  dispatch([&oracle = oracle_, p, gid] {
    oracle.on_hwg_endpoint_reset(p, gid);
  });
}

void ShardedObserverMux::on_lwg_view_installed(
    ProcessId p, LwgId lwg, const lwg::LwgView& view,
    std::span<const vsync::ViewId> predecessors) {
  dispatch([&oracle = oracle_, p, lwg, view,
            preds = std::vector<vsync::ViewId>(predecessors.begin(),
                                        predecessors.end())] {
    oracle.on_lwg_view_installed(p, lwg, view, preds);
  });
}

void ShardedObserverMux::on_lwg_delivered(ProcessId p, LwgId lwg,
                                          const vsync::ViewId& view, ProcessId src,
                                          std::span<const std::uint8_t>
                                              payload) {
  dispatch([&oracle = oracle_, p, lwg, view, src,
            key = ProtocolOracle::payload_key(payload),
            first_byte = payload.empty() ? std::uint8_t{0} : payload.front()] {
    oracle.on_lwg_delivered_key(p, lwg, view, src, key, first_byte);
  });
}

void ShardedObserverMux::on_lwg_epoch_reset(ProcessId p, LwgId lwg) {
  dispatch([&oracle = oracle_, p, lwg] {
    oracle.on_lwg_epoch_reset(p, lwg);
  });
}

void ShardedObserverMux::on_mapping_written(NodeId server, LwgId lwg,
                                            const names::MappingEntry& entry) {
  dispatch([&oracle = oracle_, server, lwg, entry] {
    oracle.on_mapping_written(server, lwg, entry);
  });
}

void ShardedObserverMux::on_mapping_gced(NodeId server, LwgId lwg,
                                         const vsync::ViewId& lwg_view) {
  dispatch([&oracle = oracle_, server, lwg, lwg_view] {
    oracle.on_mapping_gced(server, lwg, lwg_view);
  });
}

}  // namespace plwg::oracle
