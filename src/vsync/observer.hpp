// Observer interface of the heavy-weight group layer: per-process protocol
// events reported to the cross-node ProtocolOracle (src/oracle/).
//
// The hooks are deliberately minimal — raw facts, no interpretation — so
// the layer stays ignorant of what is being checked.
#pragma once

#include <cstdint>
#include <span>

#include "util/types.hpp"
#include "vsync/view.hpp"

namespace plwg::vsync {

class VsyncObserver {
 public:
  virtual ~VsyncObserver() = default;

  /// `p` installed `view` of HWG `gid` (create, join, flush, or merge).
  virtual void on_hwg_view_installed(ProcessId p, HwgId gid,
                                     const View& view) = 0;

  /// `p` delivered the totally-ordered message (`origin`, `sender_msg_id`)
  /// at sequence `seq` while member of `view`. During a flush-cut delivery
  /// `view` is still the view being closed, which is exactly the view the
  /// message belongs to.
  virtual void on_hwg_delivered(ProcessId p, HwgId gid, const ViewId& view,
                                std::uint64_t seq, ProcessId origin,
                                std::uint64_t sender_msg_id,
                                std::span<const std::uint8_t> payload) = 0;

  /// `p` completed the flush closing `old_view` (sent FLUSH_DONE, or — as
  /// `initiator` — collected every FLUSH_DONE).
  virtual void on_hwg_flush_completed(ProcessId p, HwgId gid,
                                      const ViewId& old_view,
                                      bool initiator) = 0;

  /// `p`'s endpoint for `gid` became defunct (left, excluded, dissolved).
  /// Ends the process's delivery epoch: a later re-join must not be paired
  /// with the view it held before the gap.
  virtual void on_hwg_endpoint_reset(ProcessId p, HwgId gid) = 0;
};

}  // namespace plwg::vsync
