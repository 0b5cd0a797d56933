#include "names/mapping.hpp"

#include <sstream>

namespace plwg::names {

std::ostream& operator<<(std::ostream& os, const MappingEntry& entry) {
  return os << "lwg" << entry.lwg_view << entry.lwg_members << " -> hwg#"
            << entry.hwg << entry.hwg_view;
}

bool LwgRecord::has_conflict() const {
  HwgId first;
  bool seen = false;
  for (const auto& [view, entry] : entries) {
    if (!seen) {
      first = entry.hwg;
      seen = true;
    } else if (entry.hwg != first) {
      return true;
    }
  }
  return false;
}

MemberSet LwgRecord::all_members() const {
  MemberSet all;
  for (const auto& [view, entry] : entries) {
    all = all.set_union(entry.lwg_members);
  }
  return all;
}

std::vector<MappingEntry> LwgRecord::alive_entries() const {
  std::vector<MappingEntry> out;
  out.reserve(entries.size());
  for (const auto& [view, entry] : entries) out.push_back(entry);
  return out;
}

bool LwgRecord::merge_from(const LwgRecord& other) {
  bool changed = false;
  for (ViewId v : other.superseded) {
    changed |= superseded.insert(v).second;
  }
  for (const auto& [view, entry] : other.entries) {
    auto it = entries.find(view);
    if (it == entries.end()) {
      entries.emplace(view, entry);
      changed = true;
    } else if (entry.stamp > it->second.stamp) {
      it->second = entry;
      changed = true;
    }
  }
  const std::size_t before = entries.size();
  gc();
  changed |= entries.size() != before;
  return changed;
}

bool LwgRecord::apply(const MappingEntry& entry,
                      const std::vector<ViewId>& predecessors) {
  bool changed = false;
  for (const ViewId& p : predecessors) {
    changed |= superseded.insert(p).second;
  }
  if (!superseded.contains(entry.lwg_view)) {
    auto it = entries.find(entry.lwg_view);
    if (it == entries.end()) {
      entries.emplace(entry.lwg_view, entry);
      changed = true;
    } else if (entry.stamp > it->second.stamp) {
      it->second = entry;
      changed = true;
    }
  }
  const std::size_t before = entries.size();
  gc();
  changed |= entries.size() != before;
  return changed;
}

void LwgRecord::gc() {
  for (auto it = entries.begin(); it != entries.end();) {
    if (superseded.contains(it->first)) {
      it = entries.erase(it);
    } else {
      ++it;
    }
  }
}

void LwgRecord::encode(Encoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [view, entry] : entries) enc.put(entry);
  enc.put(superseded);
}

LwgRecord LwgRecord::decode(Decoder& dec) {
  LwgRecord rec;
  const std::uint32_t n = dec.get_count(min_encoded_size<MappingEntry>());
  for (std::uint32_t i = 0; i < n; ++i) {
    MappingEntry e = dec.get<MappingEntry>();
    rec.entries.emplace(e.lwg_view, std::move(e));
  }
  rec.superseded = dec.get<std::set<ViewId>>();
  return rec;
}

std::size_t LwgRecord::encoded_size() const {
  std::size_t n = plwg::encoded_size(superseded) + 4;
  for (const auto& [view, entry] : entries) n += plwg::encoded_size(entry);
  return n;
}

bool Database::merge_from(const Database& other) {
  bool changed = false;
  for (const auto& [lwg, rec] : other.records) {
    changed |= records[lwg].merge_from(rec);
  }
  return changed;
}

std::string Database::dump() const {
  std::ostringstream os;
  for (const auto& [lwg, rec] : records) {
    os << "LWG " << lwg << ":";
    bool first = true;
    for (const auto& [view, entry] : rec.entries) {
      if (!first) os << ",";
      os << " " << entry;
      first = false;
    }
    if (rec.entries.empty()) os << " (no mapping)";
    os << "\n";
  }
  return os.str();
}

}  // namespace plwg::names
