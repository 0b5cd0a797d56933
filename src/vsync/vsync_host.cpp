#include "vsync/vsync_host.hpp"

#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::vsync {

namespace {
/// Host-level periodic driver period. Heartbeats, suspicion checks, batch
/// expiry etc. are all expressed as deadlines evaluated on this tick.
constexpr Duration kTickUs = 50'000;
}  // namespace

VsyncHost::VsyncHost(transport::NodeRuntime& node, VsyncConfig config,
                     durable::ProcessStore& store)
    : node_(node), config_(config), store_(store) {
  node_.register_port(transport::Port::kVsync, *this);
  node_.after(kTickUs, [this] { tick(); });
}

VsyncHost::~VsyncHost() = default;

void VsyncHost::tick() {
  // Endpoints may be created/erased during iteration; walk a snapshot of ids.
  std::vector<HwgId> ids;
  ids.reserve(endpoints_.size());
  for (const auto& [gid, ep] : endpoints_) ids.push_back(gid);
  for (HwgId gid : ids) {
    auto it = endpoints_.find(gid);
    if (it != endpoints_.end()) it->second->on_tick();
  }
  sweep_defunct();
  node_.after(kTickUs, [this] { tick(); });
}

void VsyncHost::sweep_defunct() {
  if (dispatching_) return;
  for (auto it = endpoints_.begin(); it != endpoints_.end();) {
    if (it->second->defunct()) {
      it = endpoints_.erase(it);
    } else {
      ++it;
    }
  }
}

HwgId VsyncHost::allocate_group_id() {
  return make_hwg_id(self(), store_.hwg_group_counter++);
}

void VsyncHost::create_group(HwgId gid, GroupUser& user) {
  PLWG_ASSERT_MSG(!endpoints_.contains(gid), "already a member of this group");
  auto ep = std::make_unique<GroupEndpoint>(*this, gid, user);
  GroupEndpoint* raw = ep.get();
  endpoints_.emplace(gid, std::move(ep));
  raw->create();
}

void VsyncHost::join_group(HwgId gid, const MemberSet& contacts,
                           GroupUser& user) {
  PLWG_ASSERT_MSG(!endpoints_.contains(gid), "already a member of this group");
  auto ep = std::make_unique<GroupEndpoint>(*this, gid, user);
  GroupEndpoint* raw = ep.get();
  endpoints_.emplace(gid, std::move(ep));
  raw->join(contacts);
}

void VsyncHost::leave_group(HwgId gid) {
  auto it = endpoints_.find(gid);
  if (it == endpoints_.end()) return;
  it->second->leave();
  sweep_defunct();
}

void VsyncHost::send(HwgId gid, SharedBytes data) {
  auto it = endpoints_.find(gid);
  PLWG_ASSERT_MSG(it != endpoints_.end(), "send on a group we are not in");
  it->second->send(std::move(data));
}

void VsyncHost::stop_ok(HwgId gid) {
  auto it = endpoints_.find(gid);
  if (it == endpoints_.end()) return;
  it->second->stop_ok();
}

void VsyncHost::force_flush(HwgId gid) {
  auto it = endpoints_.find(gid);
  if (it == endpoints_.end()) return;
  it->second->force_flush();
}

bool VsyncHost::is_member(HwgId gid) const { return endpoints_.contains(gid); }

const View* VsyncHost::view_of(HwgId gid) const {
  auto it = endpoints_.find(gid);
  if (it == endpoints_.end() || !it->second->has_view()) return nullptr;
  return &it->second->view();
}

GroupEndpoint* VsyncHost::endpoint(HwgId gid) {
  auto it = endpoints_.find(gid);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

const GroupEndpoint* VsyncHost::endpoint(HwgId gid) const {
  auto it = endpoints_.find(gid);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

std::vector<HwgId> VsyncHost::groups() const {
  std::vector<HwgId> out;
  out.reserve(endpoints_.size());
  for (const auto& [gid, ep] : endpoints_) {
    if (!ep->defunct()) out.push_back(gid);
  }
  return out;
}

void VsyncHost::on_message(NodeId from, Decoder& dec) {
  const HwgId gid = dec.get_id<HwgId>();
  const auto type = static_cast<MsgType>(dec.get_u8());
  auto it = endpoints_.find(gid);
  if (it == endpoints_.end()) return;  // not (or no longer) in this group
  dispatching_ = true;
  try {
    it->second->on_message(transport::process_of(from), type, dec);
  } catch (...) {
    // A malformed message (counted by the transport) must not leave
    // sweep_defunct() disabled until the next clean dispatch.
    dispatching_ = false;
    throw;
  }
  dispatching_ = false;
  sweep_defunct();
}

}  // namespace plwg::vsync
