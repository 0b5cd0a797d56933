#include "util/member_set.hpp"

#include <gtest/gtest.h>

namespace plwg {
namespace {

MemberSet make(std::initializer_list<std::uint32_t> ids) {
  MemberSet set;
  for (auto id : ids) set.insert(ProcessId{id});
  return set;
}

TEST(MemberSet, InsertEraseContains) {
  MemberSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(ProcessId{3}));
  EXPECT_FALSE(s.insert(ProcessId{3}));
  EXPECT_TRUE(s.insert(ProcessId{1}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(ProcessId{1}));
  EXPECT_FALSE(s.contains(ProcessId{2}));
  EXPECT_TRUE(s.erase(ProcessId{3}));
  EXPECT_FALSE(s.erase(ProcessId{3}));
  EXPECT_EQ(s.size(), 1u);
}

TEST(MemberSet, KeepsMembersSortedUnique) {
  MemberSet s({ProcessId{5}, ProcessId{1}, ProcessId{5}, ProcessId{3}});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.members()[0], ProcessId{1});
  EXPECT_EQ(s.members()[1], ProcessId{3});
  EXPECT_EQ(s.members()[2], ProcessId{5});
  EXPECT_EQ(s.min_member(), ProcessId{1});
}

TEST(MemberSet, SetAlgebra) {
  const MemberSet a = make({1, 2, 3, 4});
  const MemberSet b = make({3, 4, 5});
  EXPECT_EQ(a.set_union(b), make({1, 2, 3, 4, 5}));
  EXPECT_EQ(a.set_intersection(b), make({3, 4}));
  EXPECT_EQ(a.set_difference(b), make({1, 2}));
  EXPECT_EQ(a.intersection_size(b), 2u);
  EXPECT_TRUE(make({3, 4}).is_subset_of(a));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(MemberSet{}.is_subset_of(a));
}

TEST(MemberSet, MinorityPredicateMatchesPaperDefinition) {
  // minority: g1 ⊆ g2 and |g1| <= |g2| / k_m  (k_m = 4)
  const MemberSet g2 = make({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_TRUE(make({1, 2}).is_minority_of(g2, 4.0));    // 2 <= 8/4
  EXPECT_FALSE(make({1, 2, 3}).is_minority_of(g2, 4.0)); // 3 > 2
  EXPECT_FALSE(make({9}).is_minority_of(g2, 4.0));       // not a subset
}

TEST(MemberSet, ClosenessPredicateMatchesPaperDefinition) {
  // closeness: g1 ⊆ g2 and |g2| - |g1| <= |g2| / k_c  (k_c = 4)
  const MemberSet g2 = make({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_TRUE(make({1, 2, 3, 4, 5, 6}).is_close_to(g2, 4.0));   // gap 2 <= 2
  EXPECT_FALSE(make({1, 2, 3, 4, 5}).is_close_to(g2, 4.0));     // gap 3 > 2
  EXPECT_TRUE(g2.is_close_to(g2, 4.0));                          // gap 0
}

TEST(MemberSet, EncodeDecodeRoundTrip) {
  const MemberSet original = make({10, 20, 30});
  Encoder enc;
  enc.put(original);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get<MemberSet>(), original);
  EXPECT_TRUE(dec.done());
}

TEST(MemberSet, StreamFormat) {
  EXPECT_EQ(make({1, 2}).to_string(), "{1,2}");
  EXPECT_EQ(MemberSet{}.to_string(), "{}");
}

}  // namespace
}  // namespace plwg
