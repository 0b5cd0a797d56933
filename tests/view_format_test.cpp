// Formatting and identity semantics of views at both layers — these strings
// appear in logs, the Table 3/4 benches, and debugging sessions, so they
// are pinned down here.
#include <gtest/gtest.h>

#include <sstream>

#include "lwg/lwg_view.hpp"
#include "vsync/view.hpp"

namespace plwg {
namespace {

TEST(ViewId, OrderingIsLexicographic) {
  const vsync::ViewId a{ProcessId{1}, 5};
  const vsync::ViewId b{ProcessId{1}, 6};
  const vsync::ViewId c{ProcessId{2}, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (vsync::ViewId{ProcessId{1}, 5}));
}

TEST(ViewId, DisambiguatorDistinguishesMergedIds) {
  const vsync::ViewId plain{ProcessId{1}, 5, 0};
  const vsync::ViewId merged{ProcessId{1}, 5, 12345};
  EXPECT_NE(plain, merged);
  EXPECT_LT(plain, merged);
}

TEST(ViewId, StreamFormat) {
  std::ostringstream os;
  os << vsync::ViewId{ProcessId{3}, 7};
  EXPECT_EQ(os.str(), "view<3:7>");
  std::ostringstream os2;
  os2 << vsync::ViewId{};
  EXPECT_EQ(os2.str(), "view<->");
}

TEST(ViewId, MergedIdCarriesMergeTag) {
  std::ostringstream os;
  os << vsync::ViewId{ProcessId{3}, 7, 42};
  EXPECT_EQ(os.str(), "view<3:7~42>");
}

TEST(ViewId, HashDistinguishesFields) {
  const std::hash<vsync::ViewId> h;
  EXPECT_NE(h(vsync::ViewId{ProcessId{1}, 2}), h(vsync::ViewId{ProcessId{2}, 1}));
  EXPECT_NE(h(vsync::ViewId{ProcessId{1}, 2, 0}),
            h(vsync::ViewId{ProcessId{1}, 2, 9}));
}

TEST(View, CoordinatorIsSmallestMember) {
  vsync::View v;
  v.id = vsync::ViewId{ProcessId{9}, 1};  // installer need not coordinate
  v.members = MemberSet{ProcessId{4}, ProcessId{2}, ProcessId{8}};
  EXPECT_EQ(v.coordinator(), ProcessId{2});
}

TEST(View, StreamIncludesIdAndMembers) {
  vsync::View v;
  v.id = vsync::ViewId{ProcessId{1}, 2};
  v.members = MemberSet{ProcessId{1}, ProcessId{3}};
  std::ostringstream os;
  os << v;
  EXPECT_EQ(os.str(), "view<1:2>{1,3}");
}

TEST(LwgView, StreamIncludesHwg) {
  lwg::LwgView v;
  v.id = vsync::ViewId{ProcessId{0}, 1};
  v.members = MemberSet{ProcessId{0}};
  v.hwg = HwgId{42};
  std::ostringstream os;
  os << v;
  EXPECT_EQ(os.str(), "view<0:1>{0}@hwg42");
}

TEST(LwgView, EqualityCoversAllFields) {
  lwg::LwgView a;
  a.id = vsync::ViewId{ProcessId{0}, 1};
  a.members = MemberSet{ProcessId{0}};
  a.hwg = HwgId{42};
  lwg::LwgView b = a;
  EXPECT_TRUE(a == b);
  b.hwg = HwgId{43};
  EXPECT_FALSE(a == b);
}

TEST(View, EncodeDecodePreservesGenealogy) {
  vsync::View v;
  v.id = vsync::ViewId{ProcessId{1}, 9, 333};
  v.members = MemberSet{ProcessId{1}, ProcessId{2}};
  v.predecessors = {vsync::ViewId{ProcessId{1}, 8},
                    vsync::ViewId{ProcessId{5}, 3, 77}};
  Encoder enc;
  enc.put(v);
  Decoder dec(enc.bytes());
  const vsync::View copy = dec.get<vsync::View>();
  dec.expect_done();
  EXPECT_EQ(copy, v);
}

}  // namespace
}  // namespace plwg
