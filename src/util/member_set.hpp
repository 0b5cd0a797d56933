// MemberSet: an ordered set of process ids with the set algebra the
// light-weight-group mapping heuristics (paper Fig. 1) are written in:
// intersection size, subset tests, "minority" and "closeness" predicates.
//
// Stored as a sorted unique vector: group memberships are small (tens of
// processes), iterated often, and compared constantly, so a flat
// representation beats node-based sets in both time and clarity.
#pragma once

#include <initializer_list>
#include <ostream>
#include <span>
#include <vector>

#include "util/codec.hpp"
#include "util/types.hpp"

namespace plwg {

class MemberSet {
 public:
  MemberSet() = default;
  MemberSet(std::initializer_list<ProcessId> members);
  explicit MemberSet(std::vector<ProcessId> members);

  [[nodiscard]] bool contains(ProcessId p) const;
  /// Returns true if the member was inserted (false if already present).
  bool insert(ProcessId p);
  /// Returns true if the member was removed (false if absent).
  bool erase(ProcessId p);

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] const std::vector<ProcessId>& members() const {
    return members_;
  }

  /// The deterministic coordinator choice: smallest process id.
  [[nodiscard]] ProcessId min_member() const;

  [[nodiscard]] MemberSet set_union(const MemberSet& other) const;
  [[nodiscard]] MemberSet set_intersection(const MemberSet& other) const;
  [[nodiscard]] MemberSet set_difference(const MemberSet& other) const;
  [[nodiscard]] std::size_t intersection_size(const MemberSet& other) const;
  [[nodiscard]] bool is_subset_of(const MemberSet& other) const;

  /// Paper Fig. 1 "minority": this ⊆ other and |this| <= |other| / k_m.
  [[nodiscard]] bool is_minority_of(const MemberSet& other, double k_m) const;

  /// Paper Fig. 1 "closeness": this ⊆ other and
  /// |other| - |this| <= |other| / k_c.
  [[nodiscard]] bool is_close_to(const MemberSet& other, double k_c) const;

  // Hand-written codec (util/codec.hpp): the wire form is the member
  // vector, but decode must go through the sorting constructor.
  void encode(Encoder& enc) const { enc.put(members_); }
  static MemberSet decode(Decoder& dec) {
    return MemberSet{dec.get<std::vector<ProcessId>>()};
  }
  [[nodiscard]] std::size_t encoded_size() const {
    return plwg::encoded_size(members_);
  }
  static constexpr std::size_t kMinEncodedSize =
      min_encoded_size<std::vector<ProcessId>>();

  friend bool operator==(const MemberSet&, const MemberSet&) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<ProcessId> members_;  // sorted, unique
};

std::ostream& operator<<(std::ostream& os, const MemberSet& set);

}  // namespace plwg
