// A view's log of received ORDERED messages, sorted by seq, one copy per seq.
//
// In the steady state ORDERED arrive in seq order and the stability-floor GC
// trims from the front, so the log behaves as a queue: an append at the back
// and a pop at the front per message, with no per-entry node allocation.
// NACK repair, FETCH replies and flush-cut retransmissions insert below the
// back, in seq order. Seqs are distinct and increasing, so a log without
// holes holds `seq` at index seq - front().seq: find() looks there first and
// searches only when a hole below `seq` moved it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "vsync/messages.hpp"

namespace plwg::vsync {

class OrderedLog {
 public:
  /// Log `msg` unless its seq is already logged: the first copy of a seq is
  /// never replaced. An append past the back keeps references to logged
  /// messages valid; an insert below the back invalidates them.
  void insert(OrderedMsg msg) {
    if (msgs_.empty() || msgs_.back().seq < msg.seq) {
      msgs_.push_back(std::move(msg));
      return;
    }
    const auto it = lower_bound(msg.seq);  // not end(): back().seq >= seq
    if (it->seq != msg.seq) msgs_.insert(it, std::move(msg));
  }

  /// The logged message with `seq`, or nullptr.
  [[nodiscard]] const OrderedMsg* find(std::uint64_t seq) const {
    if (msgs_.empty() || seq < msgs_.front().seq || seq > msgs_.back().seq) {
      return nullptr;
    }
    // Each hole below `seq` moves it one index lower, never higher.
    const std::uint64_t index = seq - msgs_.front().seq;
    if (index < msgs_.size() && msgs_[index].seq == seq) return &msgs_[index];
    const auto it = lower_bound(seq);
    return it->seq == seq ? &*it : nullptr;  // not end(): back().seq >= seq
  }
  [[nodiscard]] bool contains(std::uint64_t seq) const {
    return find(seq) != nullptr;
  }

  /// Drop every message with seq <= `upto`; returns how many were dropped.
  std::size_t trim_upto(std::uint64_t upto) {
    std::size_t dropped = 0;
    while (!msgs_.empty() && msgs_.front().seq <= upto) {
      msgs_.pop_front();
      ++dropped;
    }
    return dropped;
  }

  void clear() { msgs_.clear(); }
  [[nodiscard]] std::size_t size() const { return msgs_.size(); }
  [[nodiscard]] auto begin() const { return msgs_.begin(); }
  [[nodiscard]] auto end() const { return msgs_.end(); }

 private:
  [[nodiscard]] std::deque<OrderedMsg>::const_iterator lower_bound(
      std::uint64_t seq) const {
    return std::ranges::lower_bound(msgs_, seq, {}, &OrderedMsg::seq);
  }

  std::deque<OrderedMsg> msgs_;
};

}  // namespace plwg::vsync
