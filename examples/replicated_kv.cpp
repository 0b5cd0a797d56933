// Replicated key-value store on top of PLWG — the canonical consumer of
// the on_lwg_merge hook.
//
// Each replica applies totally ordered PUT multicasts to a local map;
// virtual synchrony makes replicas identical within a view. A partition
// lets the two sides diverge (each keeps writing); when the partition heals
// and the LWG layer merges the concurrent views, on_lwg_merge fires and
// every replica broadcasts its state, merging by last-writer-wins on a
// (views-survived, writer) version tag. The example prints the store at
// each stage, showing divergence and deterministic convergence.
// (on_lwg_merge fires after the merged view installs, so the state dumps
// ride the merged view and reach every member.)
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

using namespace plwg;

namespace {

// Message kinds inside the KV group's payloads.
enum class KvMsg : std::uint8_t { kPut = 1, kStateDump };

struct Versioned {
  std::string value;
  std::uint64_t version = 0;  // logical clock, ties broken by writer pid
  std::uint32_t writer = 0;

  [[nodiscard]] bool newer_than(const Versioned& other) const {
    if (version != other.version) return version > other.version;
    return writer > other.writer;
  }
};

class KvReplica : public lwg::LwgUser {
 public:
  KvReplica(std::string name, harness::SimWorld& world, std::size_t index,
            LwgId group)
      : name_(std::move(name)), world_(world), index_(index), group_(group) {}

  void start() { world_.lwg(index_).join(group_, *this); }

  void put(const std::string& key, const std::string& value) {
    clock_++;
    Encoder enc;
    enc.put_u8(static_cast<std::uint8_t>(KvMsg::kPut));
    enc.put_string(key);
    enc.put_string(value);
    enc.put_u64(clock_);
    world_.lwg(index_).send(group_, enc.take());
  }

  [[nodiscard]] std::string get(const std::string& key) const {
    auto it = store_.find(key);
    return it == store_.end() ? "<none>" : it->second.value;
  }

  void dump(const char* label) const {
    std::printf("  %s %s:", name_.c_str(), label);
    for (const auto& [k, v] : store_) {
      std::printf(" %s=%s(v%llu)", k.c_str(), v.value.c_str(),
                  static_cast<unsigned long long>(v.version));
    }
    std::printf("\n");
  }

  [[nodiscard]] bool same_store_as(const KvReplica& other) const {
    if (store_.size() != other.store_.size()) return false;
    for (const auto& [k, v] : store_) {
      auto it = other.store_.find(k);
      if (it == other.store_.end() || it->second.value != v.value) {
        return false;
      }
    }
    return true;
  }

  // --- LwgUser -----------------------------------------------------------
  void on_lwg_view(LwgId, const lwg::LwgView& view) override {
    // Joiner state transfer: when the view grows and we coordinate, push
    // our state so newcomers catch up (idempotent LWW application).
    if (view.members.size() > view_size_ && view_size_ > 0 &&
        view.coordinator() == world_.pid(index_)) {
      broadcast_state();
    }
    view_size_ = view.members.size();
  }

  void on_lwg_data(LwgId, ProcessId src,
                   std::span<const std::uint8_t> data) override {
    Decoder dec(data);
    switch (static_cast<KvMsg>(dec.get_u8())) {
      case KvMsg::kPut: {
        const std::string key = dec.get_string();
        const std::string value = dec.get_string();
        const std::uint64_t version = dec.get_u64();
        apply(key, Versioned{value, version, src.value()});
        break;
      }
      case KvMsg::kStateDump: {
        // Reconciliation: merge a peer's whole store, last-writer-wins.
        const std::uint32_t n = dec.get_count();
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::string key = dec.get_string();
          Versioned v;
          v.value = dec.get_string();
          v.version = dec.get_u64();
          v.writer = dec.get_u32();
          apply(key, v);
        }
        break;
      }
    }
  }

  void on_lwg_merge(LwgId, const std::vector<lwg::LwgView>&,
                    const lwg::LwgView&) override {
    // Concurrent views just folded: every replica broadcasts its state in
    // the merged view; LWW application makes all stores converge.
    merges_seen_++;
    broadcast_state();
  }

  int merges_seen_ = 0;

 private:
  void broadcast_state() {
    Encoder enc;
    enc.put_u8(static_cast<std::uint8_t>(KvMsg::kStateDump));
    enc.put_u32(static_cast<std::uint32_t>(store_.size()));
    for (const auto& [k, v] : store_) {
      enc.put_string(k);
      enc.put_string(v.value);
      enc.put_u64(v.version);
      enc.put_u32(v.writer);
    }
    world_.lwg(index_).send(group_, enc.take());
  }

  void apply(const std::string& key, const Versioned& incoming) {
    auto it = store_.find(key);
    if (it == store_.end() || incoming.newer_than(it->second)) {
      store_[key] = incoming;
    }
    clock_ = std::max(clock_, incoming.version);
  }

  std::string name_;
  harness::SimWorld& world_;
  std::size_t index_;
  LwgId group_;
  std::map<std::string, Versioned> store_;
  std::uint64_t clock_ = 0;
  std::size_t view_size_ = 0;
};

}  // namespace

int main() {
  std::printf("== PLWG replicated key-value store ==\n\n");

  harness::WorldConfig cfg;
  cfg.num_processes = 4;
  cfg.num_name_servers = 2;
  harness::SimWorld world(cfg);

  const LwgId group{0xCAFE};
  std::vector<KvReplica> replicas;
  replicas.reserve(4);
  const char* names[] = {"r0", "r1", "r2", "r3"};
  for (std::size_t i = 0; i < 4; ++i) {
    replicas.emplace_back(names[i], world, i, group);
  }
  for (auto& r : replicas) r.start();
  const std::vector<std::size_t> all = harness::process_range(0, 4);
  if (!world.run_until([&] { return world.lwg_formed(group, all); },
                       60'000'000)) {
    std::fprintf(stderr, "the group never formed\n");
    return 1;
  }

  std::printf("phase 1: replicated writes while connected\n");
  replicas[0].put("color", "blue");
  replicas[3].put("shape", "circle");
  world.run_for(2'000'000);
  replicas[0].dump("store");
  replicas[3].dump("store");

  std::printf("\nphase 2: partition {r0,r1} | {r2,r3}; both sides write\n");
  world.partition({{0, 1}, {2, 3}}, {0, 1});
  world.run_for(5'000'000);
  replicas[0].put("color", "red");      // east updates color
  replicas[2].put("shape", "square");   // west updates shape
  replicas[2].put("size", "large");     // west adds a key
  world.run_for(3'000'000);
  replicas[0].dump("(east)");
  replicas[2].dump("(west)");

  std::printf("\nphase 3: heal; LWG merge triggers state reconciliation\n");
  world.heal();
  const bool merged = world.run_until(
      [&] {
        return world.lwg_formed(group, all) &&
               replicas[0].same_store_as(replicas[2]) &&
               replicas[1].same_store_as(replicas[3]) &&
               replicas[0].same_store_as(replicas[1]);
      },
      120'000'000);
  if (!merged) {
    std::fprintf(stderr, "the group never merged after the heal\n");
    return 1;
  }
  for (const auto& r : replicas) r.dump("final");
  std::printf("\nall replicas identical: %s; merge callbacks delivered: "
              "%d/%d replicas\n",
              replicas[0].same_store_as(replicas[3]) ? "yes" : "NO",
              replicas[0].merges_seen_ + replicas[1].merges_seen_ +
                  replicas[2].merges_seen_ + replicas[3].merges_seen_,
              4);
  return 0;
}
