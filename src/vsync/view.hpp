// Views and view identifiers for the heavy-weight (virtually synchronous)
// group layer.
//
// Following paper Sect. 5.1, a view identifier is the pair
// (coordinator, view-sequence-number): the installing coordinator plus a
// counter it increments locally per installed view. In a partitionable
// system multiple *concurrent* views of the same group may exist; identifiers
// let every protocol message be tagged with the view it was sent in, so it
// is delivered only to members of that view.
#pragma once

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "util/codec.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"

namespace plwg::vsync {

struct ViewId {
  ProcessId coordinator;  // the process that installed the view
  std::uint32_t seq = 0;  // that process's local view counter
  /// Disambiguator for *deterministically computed* view ids: the LWG
  /// merge-views protocol (paper Fig. 5) derives the merged view id from
  /// the constituent ids so every member computes the same id with no
  /// extra round; a hash of the constituents keeps it from colliding with
  /// ids the coordinator minted from its local counter. Locally minted ids
  /// use 0.
  std::uint32_t disambig = 0;

  [[nodiscard]] bool valid() const { return coordinator.valid(); }

  friend constexpr auto operator<=>(const ViewId&, const ViewId&) = default;

  static constexpr auto kFields =
      std::tuple{&ViewId::coordinator, &ViewId::seq, &ViewId::disambig};

  [[nodiscard]] std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const ViewId& id);

struct View {
  ViewId id;
  MemberSet members;
  /// View genealogy: the ids of the views this view succeeded. A plain view
  /// change has one predecessor; a partition merge lists every constituent
  /// view. The naming service uses this partial order to garbage-collect
  /// obsolete mappings (paper Sect. 5.2 / Table 4).
  std::vector<ViewId> predecessors;

  /// Deterministic coordinator rule: smallest process id in the view.
  [[nodiscard]] ProcessId coordinator() const { return members.min_member(); }

  static constexpr auto kFields =
      std::tuple{&View::id, &View::members, &View::predecessors};

  friend bool operator==(const View&, const View&) = default;
};

std::ostream& operator<<(std::ostream& os, const View& view);

}  // namespace plwg::vsync

namespace std {
template <>
struct hash<plwg::vsync::ViewId> {
  size_t operator()(const plwg::vsync::ViewId& id) const noexcept {
    return (hash<plwg::ProcessId>{}(id.coordinator) * 1000003u ^
            hash<uint32_t>{}(id.seq)) *
               1000003u ^
           hash<uint32_t>{}(id.disambig);
  }
};
}  // namespace std
