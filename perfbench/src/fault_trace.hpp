// In-memory sim::TraceSink for the traced run. It reassembles the causal
// spans the simulator already emits into exact per-fault samples:
//
//   * the pager's "fault" span and its "evict" part (pager track) plus the
//     "queue" and "io" parts the swap scheduler emits under the same causal
//     id — "fault = evict + queue + io",
//   * the fault handler's "service" span (raise -> retry, the OS trip an
//     MMU-raised fault takes; absent when faults enter the pager directly).
//
// Swap traffic without an open fault (writebacks, readahead) carries ids of
// its own and is not attributed to any fault.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/simulator.hpp"

namespace perfbench {

class FaultSpanSink final : public vmsls::sim::TraceSink {
 public:
  /// Exact per-fault samples, in completion order.
  struct Samples {
    std::vector<vmsls::Cycles> fault;  ///< whole fault span
    double evict_sum = 0;
    double queue_sum = 0;
    double io_sum = 0;
    std::vector<vmsls::Cycles> os_service;
    vmsls::u64 events = 0;  ///< trace events seen
  };

  /// Routes `sim`'s trace stream here. Causal ids restart with every
  /// simulator, so open-span state resets; collected samples accumulate.
  void attach(vmsls::sim::Simulator& sim) {
    roles_.clear();
    open_.clear();
    faults_.clear();
    sim.trace().set_sink(this);
  }

  const Samples& samples() const noexcept { return samples_; }

  void on_event(const vmsls::sim::TraceContext& ctx, const vmsls::sim::TraceEvent& ev) override {
    using Kind = vmsls::sim::TraceEvent::Kind;
    ++samples_.events;
    if (ev.kind != Kind::kBegin && ev.kind != Kind::kEnd) return;
    const Part part = classify(ctx, ev);
    if (part == Part::kNone) return;
    if (part == Part::kFault && ev.kind == Kind::kBegin) faults_.emplace(ev.id, Parts{});
    if ((part == Part::kQueue || part == Part::kIo) && faults_.count(ev.id) == 0) return;

    const Key key{ev.id, part};
    if (ev.kind == Kind::kBegin) {
      open_[key] = ev.ts;
      return;
    }
    const auto it = open_.find(key);
    if (it == open_.end()) return;
    const vmsls::Cycles dur = ev.ts - it->second;
    open_.erase(it);
    switch (part) {
      case Part::kService:
        samples_.os_service.push_back(dur);
        break;
      case Part::kFault: {
        const Parts p = faults_.at(ev.id);
        faults_.erase(ev.id);
        samples_.fault.push_back(dur);
        samples_.evict_sum += static_cast<double>(p.evict);
        samples_.queue_sum += static_cast<double>(p.queue);
        samples_.io_sum += static_cast<double>(p.io);
        break;
      }
      case Part::kEvict:
        faults_.at(ev.id).evict += dur;
        break;
      case Part::kQueue:
        faults_.at(ev.id).queue += dur;
        break;
      case Part::kIo:
        faults_.at(ev.id).io += dur;
        break;
      case Part::kNone:
        break;
    }
  }

 private:
  enum class Part { kNone, kFault, kEvict, kQueue, kIo, kService };
  enum class Role { kOther, kPager, kSwap, kFaultHandler };

  struct Key {
    vmsls::u64 id;
    Part part;
    bool operator==(const Key& o) const noexcept { return id == o.id && part == o.part; }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<vmsls::u64>{}(k.id * 8 + static_cast<vmsls::u64>(k.part));
    }
  };
  struct Parts {
    vmsls::Cycles evict = 0;
    vmsls::Cycles queue = 0;
    vmsls::Cycles io = 0;
  };

  static bool ends_with(const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  }

  Role role(const vmsls::sim::TraceContext& ctx, vmsls::sim::TraceTrack track) {
    if (const auto it = roles_.find(track); it != roles_.end()) return it->second;
    const std::string& name = ctx.track_name(track);
    Role r = Role::kOther;
    if (name == "pager" || ends_with(name, ".pager"))
      r = Role::kPager;
    else if (name == "swap" || ends_with(name, ".swap"))
      r = Role::kSwap;
    else if (name == "faults" || ends_with(name, ".faults"))
      r = Role::kFaultHandler;
    roles_.emplace(track, r);
    return r;
  }

  Part classify(const vmsls::sim::TraceContext& ctx, const vmsls::sim::TraceEvent& ev) {
    if (ev.id == 0) return Part::kNone;
    const std::string name = ev.name;
    switch (role(ctx, ev.track)) {
      case Role::kPager:
        if (name == "fault") return Part::kFault;
        if (name == "evict") return Part::kEvict;
        return Part::kNone;
      case Role::kSwap:
        if (name == "queue") return Part::kQueue;
        if (name == "io") return Part::kIo;
        return Part::kNone;
      case Role::kFaultHandler:
        return name == "service" ? Part::kService : Part::kNone;
      case Role::kOther:
        return Part::kNone;
    }
    return Part::kNone;
  }

  std::unordered_map<vmsls::sim::TraceTrack, Role> roles_;
  std::unordered_map<Key, vmsls::Cycles, KeyHash> open_;
  std::unordered_map<vmsls::u64, Parts> faults_;
  Samples samples_;
};

}  // namespace perfbench
