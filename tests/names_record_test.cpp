// Unit tests for the naming-service data model: mapping records, genealogy
// garbage collection, conflict detection, and database merge (the logic of
// paper Sect. 5.2 / Tables 3-4, independent of any network).
#include "names/mapping.hpp"

#include <gtest/gtest.h>

namespace plwg::names {
namespace {

MappingEntry entry(std::uint32_t coord, std::uint32_t seq, std::uint64_t hwg,
                   std::initializer_list<std::uint32_t> members = {1, 2},
                   std::uint64_t stamp = 1) {
  MappingEntry e;
  e.lwg_view = ViewId{ProcessId{coord}, seq};
  for (auto m : members) e.lwg_members.insert(ProcessId{m});
  e.hwg = HwgId{hwg};
  e.hwg_view = ViewId{ProcessId{coord}, seq};
  e.hwg_members = e.lwg_members;
  e.stamp = stamp;
  return e;
}

TEST(LwgRecord, ApplyInsertsEntry) {
  LwgRecord rec;
  EXPECT_TRUE(rec.apply(entry(1, 1, 100), {}));
  EXPECT_EQ(rec.entries.size(), 1u);
  EXPECT_FALSE(rec.has_conflict());
}

TEST(LwgRecord, HigherStampWinsForSameView) {
  LwgRecord rec;
  rec.apply(entry(1, 1, 100, {1, 2}, 1), {});
  MappingEntry updated = entry(1, 1, 200, {1, 2}, 2);
  EXPECT_TRUE(rec.apply(updated, {}));
  EXPECT_EQ(rec.entries.begin()->second.hwg, HwgId{200});
  // A stale lower-stamp write does not regress the record.
  EXPECT_FALSE(rec.apply(entry(1, 1, 100, {1, 2}, 1), {}));
  EXPECT_EQ(rec.entries.begin()->second.hwg, HwgId{200});
}

TEST(LwgRecord, ConflictRequiresDifferentHwgs) {
  LwgRecord rec;
  rec.apply(entry(1, 1, 100), {});
  rec.apply(entry(5, 1, 100), {});  // concurrent views, same HWG
  EXPECT_FALSE(rec.has_conflict());
  rec.apply(entry(7, 1, 200), {});  // now a different HWG appears
  EXPECT_TRUE(rec.has_conflict());
}

TEST(LwgRecord, PredecessorsAreGarbageCollected) {
  LwgRecord rec;
  rec.apply(entry(1, 1, 100), {});
  rec.apply(entry(5, 1, 200), {});
  ASSERT_EQ(rec.entries.size(), 2u);
  // A merged view supersedes both constituents (paper Table 4, stage 4).
  MappingEntry merged = entry(1, 9, 200, {1, 2, 3});
  rec.apply(merged, {ViewId{ProcessId{1}, 1}, ViewId{ProcessId{5}, 1}});
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_EQ(rec.entries.begin()->first, (ViewId{ProcessId{1}, 9}));
  EXPECT_FALSE(rec.has_conflict());
}

TEST(LwgRecord, LateArrivingObsoleteEntryIsDropped) {
  LwgRecord rec;
  rec.apply(entry(1, 9, 200), {ViewId{ProcessId{1}, 1}});
  // The superseded mapping arrives afterwards (e.g. from a reconciling
  // peer): the tombstone wins.
  EXPECT_FALSE(rec.apply(entry(1, 1, 100), {}));
  EXPECT_EQ(rec.entries.size(), 1u);
  EXPECT_FALSE(rec.entries.contains(ViewId{ProcessId{1}, 1}));
}

TEST(LwgRecord, MergeFromUnionsEntriesAndTombstones) {
  LwgRecord a, b;
  a.apply(entry(1, 1, 100), {});
  b.apply(entry(5, 1, 200), {});
  EXPECT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.entries.size(), 2u);
  EXPECT_TRUE(a.has_conflict());
  // Idempotent.
  EXPECT_FALSE(a.merge_from(b));
}

TEST(LwgRecord, MergeAppliesRemoteTombstones) {
  LwgRecord a, b;
  a.apply(entry(1, 1, 100), {});
  b.apply(entry(1, 9, 300), {ViewId{ProcessId{1}, 1}});
  EXPECT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.entries.size(), 1u);
  EXPECT_TRUE(a.entries.contains(ViewId{ProcessId{1}, 9}));
}

TEST(LwgRecord, AllMembersUnionsAliveViews) {
  LwgRecord rec;
  rec.apply(entry(1, 1, 100, {1, 2}), {});
  rec.apply(entry(5, 1, 200, {3, 4}), {});
  EXPECT_EQ(rec.all_members(),
            (MemberSet{ProcessId{1}, ProcessId{2}, ProcessId{3},
                       ProcessId{4}}));
}

TEST(Database, MergeIsCommutativeOnDisjointRecords) {
  Database a, b;
  a.records[LwgId{1}].apply(entry(1, 1, 100), {});
  b.records[LwgId{2}].apply(entry(5, 1, 200), {});
  Database a2 = a;
  EXPECT_TRUE(a.merge_from(b));
  EXPECT_TRUE(b.merge_from(a2));
  EXPECT_EQ(a.records.size(), 2u);
  EXPECT_EQ(b.records.size(), 2u);
}

TEST(Database, PaperTable3Scenario) {
  // Partition p:  lwg_a -> hwg_1,  lwg_b -> hwg_2
  // Partition p': lwg'_a -> hwg'_2, lwg'_b -> hwg'_1
  Database p, pp;
  p.records[LwgId{0xA}].apply(entry(1, 1, 1, {1, 2}), {});
  p.records[LwgId{0xB}].apply(entry(1, 2, 2, {1, 2}), {});
  pp.records[LwgId{0xA}].apply(entry(3, 1, 2, {3, 4}), {});
  pp.records[LwgId{0xB}].apply(entry(3, 2, 1, {3, 4}), {});
  // Healing: the merged database holds both mappings per LWG (Table 3) and
  // both LWGs are flagged as conflicting.
  EXPECT_TRUE(p.merge_from(pp));
  EXPECT_EQ(p.records[LwgId{0xA}].entries.size(), 2u);
  EXPECT_EQ(p.records[LwgId{0xB}].entries.size(), 2u);
  EXPECT_TRUE(p.records[LwgId{0xA}].has_conflict());
  EXPECT_TRUE(p.records[LwgId{0xB}].has_conflict());
}

TEST(Database, EncodeDecodeRoundTrip) {
  Database db;
  db.records[LwgId{1}].apply(entry(1, 1, 100), {ViewId{ProcessId{9}, 3}});
  db.records[LwgId{2}].apply(entry(5, 2, 200, {7, 8}, 4), {});
  Encoder enc;
  enc.put(db);
  Decoder dec(enc.bytes());
  Database copy = dec.get<Database>();
  EXPECT_TRUE(dec.done());
  ASSERT_EQ(copy.records.size(), 2u);
  EXPECT_EQ(copy.records[LwgId{1}].entries, db.records[LwgId{1}].entries);
  EXPECT_EQ(copy.records[LwgId{1}].superseded,
            db.records[LwgId{1}].superseded);
  EXPECT_EQ(copy.records[LwgId{2}].entries.begin()->second.stamp, 4u);
}

TEST(Database, DumpListsEveryRecord) {
  Database db;
  db.records[LwgId{1}].apply(entry(1, 1, 100), {});
  const std::string dump = db.dump();
  EXPECT_NE(dump.find("LWG 1"), std::string::npos);
  EXPECT_NE(dump.find("hwg#100"), std::string::npos);
}

}  // namespace
}  // namespace plwg::names
