// Malformed vsync traffic inside frames whose checksum is valid: the
// transport counts the decode failure, the message is not acted on, and the
// host keeps working.
#include <gtest/gtest.h>

#include "vsync/messages.hpp"
#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

class VsyncMalformedTest : public VsyncFixture {
 protected:
  /// Sends `packet`, a whole vsync packet, from `from`, a bare runtime with
  /// no vsync stack of its own, to process `to`.
  void inject(transport::NodeRuntime& from, std::size_t to,
              const Encoder& packet) {
    from.send(transport::Port::kVsync, node(to), packet);
    run_for(100'000);
  }
};

// A FLUSH_DONE for a view the coordinator has left behind is answered with
// the current view (NEW_VIEW to its sender). With one trailing byte the
// same message is refused whole: counted, and not answered.
TEST_F(VsyncMalformedTest, FlushDoneWithATrailingByteIsCountedAndIgnored) {
  build(2);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1}, members_of({0, 1})); }, 5'000'000));

  transport::NodeRuntime stranger(*net_);
  Encoder done;
  encode_envelope(done, gid,
                  FlushDoneMsg{ViewId{stranger.process_id(), 1}, 1,
                               stranger.process_id()});
  Encoder padded = done;
  padded.put_u8(0);

  inject(stranger, 0, padded);
  EXPECT_EQ(nodes_[0]->stats().decode_errors, 1u);
  // A NEW_VIEW answer would reach the stranger's unbound vsync port.
  EXPECT_EQ(stranger.stats().unbound_port_drops, 0u);

  inject(stranger, 0, done);
  EXPECT_EQ(nodes_[0]->stats().decode_errors, 1u);
  EXPECT_EQ(stranger.stats().unbound_port_drops, 1u);
}

// A decode failure unwinds through VsyncHost's dispatch; the host must
// still sweep the endpoints that went defunct afterwards.
TEST_F(VsyncMalformedTest, DecodeFailureDoesNotStallTheDefunctSweep) {
  build(1);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  run_for(100'000);

  transport::NodeRuntime stranger(*net_);
  Encoder truncated;
  truncated.put(gid);
  truncated.put_u8(static_cast<std::uint8_t>(HeartbeatMsg::kType));
  truncated.put_u8(0);  // a HEARTBEAT needs far more than one byte
  inject(stranger, 0, truncated);
  ASSERT_EQ(nodes_[0]->stats().decode_errors, 1u);

  host(0).leave_group(gid);  // sole member: the endpoint goes defunct
  run_for(200'000);          // several host ticks
  EXPECT_EQ(host(0).endpoint(gid), nullptr);
  EXPECT_FALSE(host(0).is_member(gid));
}

}  // namespace
}  // namespace plwg::vsync::testing
