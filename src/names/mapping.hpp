// Data model of the partitionable naming service (paper Sect. 5.2).
//
// The database maps *LWG views* to *HWG views* — not just group to group —
// because concurrent views of the same LWG can be mapped differently in
// concurrent partitions (paper Fig. 3 / Table 3). Each LWG record also
// carries a genealogy tombstone set: once a merged view is registered with
// its predecessor list, the predecessors' mappings are obsolete and are
// garbage-collected, including when they later arrive from a reconciling
// peer server (paper Table 4).
#pragma once

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "util/codec.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"
#include "vsync/view.hpp"

namespace plwg::names {

/// LWG views use the same (coordinator, sequence) identifier scheme as HWG
/// views (paper Sect. 5.1).
using ViewId = vsync::ViewId;

struct MappingEntry {
  ViewId lwg_view;        // the LWG view this mapping is for
  MemberSet lwg_members;  // its membership (callback + contact targets)
  HwgId hwg;              // the HWG it is mapped onto
  ViewId hwg_view;        // the HWG view observed when registering
  MemberSet hwg_members;  // contacts for joining the HWG
  /// Monotonic per-lwg_view update counter (bumped by the LWG coordinator on
  /// every re-registration, e.g. when the underlying HWG view changes).
  /// Reconciliation keeps the higher stamp for the same lwg_view.
  std::uint64_t stamp = 0;

  static constexpr auto kFields =
      std::tuple{&MappingEntry::lwg_view, &MappingEntry::lwg_members,
                 &MappingEntry::hwg, &MappingEntry::hwg_view,
                 &MappingEntry::hwg_members, &MappingEntry::stamp};

  friend bool operator==(const MappingEntry&, const MappingEntry&) = default;
};

std::ostream& operator<<(std::ostream& os, const MappingEntry& entry);

struct LwgRecord {
  /// Alive view-to-view mappings, keyed by LWG view id.
  std::map<ViewId, MappingEntry> entries;
  /// Views made obsolete by a registered successor (genealogy GC).
  std::set<ViewId> superseded;

  /// True if ≥2 alive mappings point at *different* HWGs — the paper's
  /// conflict (Sect. 6.1). The server's MULTIPLE-MAPPINGS callback fires on
  /// the wider condition of ≥2 alive rows (see server_check_conflicts).
  [[nodiscard]] bool has_conflict() const;

  /// All processes that belong to any alive LWG view (callback targets).
  [[nodiscard]] MemberSet all_members() const;

  [[nodiscard]] std::vector<MappingEntry> alive_entries() const;

  /// Merge `other` into this record: union entries (higher stamp wins per
  /// view), union tombstones, then drop superseded entries.
  /// Returns true if anything changed.
  bool merge_from(const LwgRecord& other);

  /// Apply one mutation: record `entry`, mark `predecessors` superseded,
  /// GC. Returns true if anything changed.
  bool apply(const MappingEntry& entry, const std::vector<ViewId>& predecessors);

  // Hand-written codec (util/codec.hpp): `entries` goes on the wire as a
  // list of its values, each keyed again by its lwg_view on decode.
  void encode(Encoder& enc) const;
  static LwgRecord decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size() const;
  static constexpr std::size_t kMinEncodedSize =
      min_encoded_size<std::vector<MappingEntry>>() +
      min_encoded_size<std::set<ViewId>>();

 private:
  void gc();
};

/// Whole-database snapshot, exchanged by server anti-entropy.
struct Database {
  std::map<LwgId, LwgRecord> records;

  bool merge_from(const Database& other);

  static constexpr auto kFields = std::tuple{&Database::records};
  [[nodiscard]] std::size_t encoded_size() const {
    return plwg::encoded_size(*this);
  }

  /// Human-readable dump in the style of the paper's Tables 3/4.
  [[nodiscard]] std::string dump() const;
};

}  // namespace plwg::names
