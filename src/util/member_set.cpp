#include "util/member_set.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace plwg {

MemberSet::MemberSet(std::initializer_list<ProcessId> members)
    : MemberSet(std::vector<ProcessId>(members)) {}

MemberSet::MemberSet(std::vector<ProcessId> members)
    : members_(std::move(members)) {
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
}

bool MemberSet::contains(ProcessId p) const {
  return std::binary_search(members_.begin(), members_.end(), p);
}

bool MemberSet::insert(ProcessId p) {
  auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it != members_.end() && *it == p) return false;
  members_.insert(it, p);
  return true;
}

bool MemberSet::erase(ProcessId p) {
  auto it = std::lower_bound(members_.begin(), members_.end(), p);
  if (it == members_.end() || *it != p) return false;
  members_.erase(it);
  return true;
}

ProcessId MemberSet::min_member() const {
  PLWG_ASSERT_MSG(!members_.empty(), "min_member of empty set");
  return members_.front();
}

MemberSet MemberSet::set_union(const MemberSet& other) const {
  std::vector<ProcessId> out;
  out.reserve(members_.size() + other.members_.size());
  std::set_union(members_.begin(), members_.end(), other.members_.begin(),
                 other.members_.end(), std::back_inserter(out));
  MemberSet result;
  result.members_ = std::move(out);
  return result;
}

MemberSet MemberSet::set_intersection(const MemberSet& other) const {
  std::vector<ProcessId> out;
  std::set_intersection(members_.begin(), members_.end(),
                        other.members_.begin(), other.members_.end(),
                        std::back_inserter(out));
  MemberSet result;
  result.members_ = std::move(out);
  return result;
}

MemberSet MemberSet::set_difference(const MemberSet& other) const {
  std::vector<ProcessId> out;
  std::set_difference(members_.begin(), members_.end(), other.members_.begin(),
                      other.members_.end(), std::back_inserter(out));
  MemberSet result;
  result.members_ = std::move(out);
  return result;
}

std::size_t MemberSet::intersection_size(const MemberSet& other) const {
  std::size_t count = 0;
  auto a = members_.begin();
  auto b = other.members_.begin();
  while (a != members_.end() && b != other.members_.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

bool MemberSet::is_subset_of(const MemberSet& other) const {
  return std::includes(other.members_.begin(), other.members_.end(),
                       members_.begin(), members_.end());
}

bool MemberSet::is_minority_of(const MemberSet& other, double k_m) const {
  PLWG_ASSERT(k_m > 0);
  if (!is_subset_of(other)) return false;
  return static_cast<double>(size()) <=
         static_cast<double>(other.size()) / k_m;
}

bool MemberSet::is_close_to(const MemberSet& other, double k_c) const {
  PLWG_ASSERT(k_c > 0);
  if (!is_subset_of(other)) return false;
  const double gap = static_cast<double>(other.size() - size());
  return gap <= static_cast<double>(other.size()) / k_c;
}

std::string MemberSet::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const MemberSet& set) {
  os << "{";
  bool first = true;
  for (ProcessId p : set.members()) {
    if (!first) os << ",";
    os << p;
    first = false;
  }
  return os << "}";
}

}  // namespace plwg
