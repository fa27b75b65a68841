// Cycle-domain tracing & telemetry: TraceContext units, the determinism
// contract (a traced run is bit-identical to an untraced one), span balance
// and causal fault decomposition on a pressured full-system run, the JSON
// writer's output shape, and the TelemetrySampler's cadence/drain behavior.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mem/paging/swap_scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/telemetry.hpp"
#include "sim/trace.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace vmsls {
namespace {

struct MemorySink final : sim::TraceSink {
  std::vector<sim::TraceEvent> events;  // names are literals; safe to retain
  void on_event(const sim::TraceContext&, const sim::TraceEvent& ev) override {
    events.push_back(ev);
  }
};

// --- TraceContext units ----------------------------------------------------

TEST(TraceContext, DisabledIsInert) {
  sim::Simulator sim;
  auto& tr = sim.trace();
  EXPECT_FALSE(tr.enabled());
  // new_id() hands out 0 while disabled and accumulates no state, so an
  // untraced run's trace context stays bit-identical to a fresh one.
  EXPECT_EQ(tr.new_id(), 0u);
  EXPECT_EQ(tr.new_id(), 0u);
  EXPECT_EQ(tr.last_id(), 0u);
  const auto t = tr.track("x");
  VMSLS_TRACE_BEGIN(tr, t, "s", 1);  // no sink: must be a no-op
  VMSLS_TRACE_END(tr, t, "s", 1);
  VMSLS_TRACE_COUNTER(tr, t, "c", 3.0);
  EXPECT_EQ(tr.last_id(), 0u);
}

TEST(TraceContext, TracksRegisterOnceAndResolve) {
  sim::Simulator sim;
  const auto a = sim.trace().track("pager");
  const auto b = sim.trace().track("swap");
  EXPECT_NE(a, b);
  EXPECT_EQ(sim.trace().track("pager"), a);  // idempotent lookup
  EXPECT_EQ(sim.trace().track_name(b), "swap");
  EXPECT_EQ(sim.trace().track_names().size(), 2u);
}

TEST(TraceContext, IdsMonotoneWhileEnabled) {
  sim::Simulator sim;
  MemorySink sink;
  sim.trace().set_sink(&sink);
  EXPECT_TRUE(sim.trace().enabled());
  EXPECT_EQ(sim.trace().new_id(), 1u);
  EXPECT_EQ(sim.trace().new_id(), 2u);
  sim.trace().set_sink(nullptr);
  EXPECT_EQ(sim.trace().new_id(), 0u);
}

TEST(TraceContext, EventsCarrySimulatedTime) {
  sim::Simulator sim;
  MemorySink sink;
  sim.trace().set_sink(&sink);
  const auto t = sim.trace().track("comp");
  sim.schedule_in(7, [&] { sim.trace().instant(t, "mark", 0, 42); });
  sim.drain();
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].ts, 7u);
  EXPECT_EQ(sink.events[0].aux, 42u);
  sim.trace().set_sink(nullptr);
}

// --- full-system runs under memory pressure --------------------------------

struct RunResult {
  Cycles cycles = 0;
  u64 events = 0;
  std::map<std::string, double> stats;
  std::vector<sim::TraceEvent> trace;
  std::vector<std::string> tracks;
};

/// pointer_chase cold-started against an 8-frame budget with priority swap
/// scheduling and readahead: plenty of faults, evictions, writebacks, and
/// prefetches to exercise every emission site.
RunResult run_pressured(bool traced) {
  workloads::WorkloadParams p;
  p.n = 2048;
  p.seed = 3;
  const auto wl = workloads::make_pointer_chase(p);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.frame_budget = 8;
  plat.pager.swap.sched = paging::SwapSchedPolicy::kPriority;
  plat.pager.swap.readahead = 2;
  sls::SynthesisFlow flow(plat);
  const auto image = flow.synthesize(app);

  sim::Simulator sim;
  MemorySink sink;
  if (traced) sim.trace().set_sink(&sink);
  auto system = image.elaborate(sim);
  wl.setup(*system);
  for (const auto& buf : app.buffers)
    system->process().evict(system->buffer(buf.name), buf.bytes);
  system->start_all();
  RunResult r;
  r.cycles = system->run_to_completion();
  sim.drain();  // trailing writebacks/prefetches retire
  EXPECT_TRUE(wl.verify(*system));
  r.events = sim.events_executed();
  r.stats = sim.stats().snapshot();
  if (traced) {
    r.tracks = sim.trace().track_names();
    sim.trace().set_sink(nullptr);
  }
  r.trace = std::move(sink.events);
  return r;
}

TEST(Trace, TracedRunIsBitIdenticalToUntraced) {
  const RunResult off = run_pressured(false);
  const RunResult on = run_pressured(true);
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.stats, on.stats);  // every counter and histogram moment
  EXPECT_TRUE(off.trace.empty());
  EXPECT_GT(on.trace.size(), 0u);
}

using SpanKey = std::tuple<sim::TraceTrack, std::string, u64>;

TEST(Trace, SpansBalanceAndFaultIdsAreCausal) {
  const RunResult r = run_pressured(true);
  std::map<SpanKey, Cycles> open;
  u64 prev_fault_id = 0;
  Cycles prev_fault_ts = 0;
  u64 fault_begins = 0;
  for (const auto& ev : r.trace) {
    if (ev.kind == sim::TraceEvent::Kind::kBegin) {
      EXPECT_TRUE(open.emplace(SpanKey{ev.track, ev.name, ev.id}, ev.ts).second)
          << "duplicate begin for " << ev.name << " id=" << ev.id;
      if (std::string(ev.name) == "fault") {
        // IDs are allocated at fault admission, so begin order is both
        // time-ordered and ID-ordered: causality reads straight off the file.
        EXPECT_GT(ev.id, prev_fault_id);
        EXPECT_GE(ev.ts, prev_fault_ts);
        prev_fault_id = ev.id;
        prev_fault_ts = ev.ts;
        ++fault_begins;
      }
    } else if (ev.kind == sim::TraceEvent::Kind::kEnd) {
      EXPECT_EQ(open.erase(SpanKey{ev.track, ev.name, ev.id}), 1u)
          << "end without begin for " << ev.name << " id=" << ev.id;
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " spans left open";
  EXPECT_GT(fault_begins, 0u);
}

TEST(Trace, FaultSpansDecomposeIntoSubSpans) {
  const RunResult r = run_pressured(true);
  struct Durations {
    Cycles fault = 0, evict = 0, queue = 0, io = 0;
    bool have_fault = false;
  };
  std::map<SpanKey, Cycles> open;
  std::map<u64, Durations> by_id;
  for (const auto& ev : r.trace) {
    const SpanKey key{ev.track, ev.name, ev.id};
    if (ev.kind == sim::TraceEvent::Kind::kBegin) {
      open[key] = ev.ts;
    } else if (ev.kind == sim::TraceEvent::Kind::kEnd) {
      const Cycles dur = ev.ts - open.at(key);
      auto& d = by_id[ev.id];
      const std::string name = ev.name;
      if (name == "fault") {
        d.fault = dur;
        d.have_fault = true;
      } else if (name == "evict") {
        d.evict += dur;
      } else if (name == "queue") {
        d.queue += dur;
      } else if (name == "io") {
        d.io += dur;
      }
    }
  }
  u64 faults = 0, with_io = 0;
  for (const auto& [id, d] : by_id) {
    if (!d.have_fault) continue;  // prefetch/writeback ids carry no fault span
    ++faults;
    // The span-sum identity: a fault's service latency is exactly its frame
    // reservation (evict), queue wait, and device transfer — no dark cycles.
    EXPECT_EQ(d.fault, d.evict + d.queue + d.io) << "fault id " << id;
    if (d.io > 0) ++with_io;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(with_io, 0u);  // at least one demand swap-in decomposed fully
}

TEST(Trace, MaxFaultSpanMatchesFaultStallHistogram) {
  const RunResult r = run_pressured(true);
  std::map<SpanKey, Cycles> open;
  Cycles max_span = 0;
  for (const auto& ev : r.trace) {
    if (std::string(ev.name) != "fault") continue;
    const SpanKey key{ev.track, ev.name, ev.id};
    if (ev.kind == sim::TraceEvent::Kind::kBegin) open[key] = ev.ts;
    else if (ev.kind == sim::TraceEvent::Kind::kEnd)
      max_span = std::max(max_span, ev.ts - open.at(key));
  }
  EXPECT_EQ(static_cast<double>(max_span), r.stats.at("pager.fault_stall.max"));
}

// --- JSON writer -----------------------------------------------------------

TEST(JsonTraceWriter, WellFormedAndBalanced) {
  std::ostringstream os;
  sim::Simulator sim;
  sim::JsonTraceWriter writer(os);
  sim.trace().set_sink(&writer);
  const auto t = sim.trace().track("comp \"quoted\"");
  const u64 id = sim.trace().new_id();
  sim.trace().begin(t, "span", id, 7);
  sim.trace().counter(t, "depth", 3.5);
  sim.trace().instant(t, "mark", id, 9);
  sim.trace().end(t, "span", id);
  writer.finish(sim.trace());
  writer.finish(sim.trace());  // idempotent
  sim.trace().set_sink(nullptr);

  const std::string json = os.str();
  EXPECT_EQ(writer.events_written(), 4u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  auto count = [&json](const std::string& needle) {
    u64 n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"b\""), count("\"ph\":\"e\""));  // spans balance
  EXPECT_EQ(count("{"), count("}"));
  EXPECT_NE(json.find("\"comp \\\"quoted\\\"\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
}

// --- telemetry sampler -----------------------------------------------------

TEST(TelemetrySampler, SamplesAtCadenceThenDisarms) {
  sim::Simulator sim;
  sim::TelemetrySampler ts(sim, 10);
  u64 x = 0;
  ts.add_probe("x", [&x] { return static_cast<double>(x); });
  ts.add_rate_probe("dx", [&x] { return static_cast<double>(x); });
  for (u64 i = 1; i <= 10; ++i) sim.schedule_in(i * 4, [&x] { ++x; });
  ts.start();
  EXPECT_TRUE(ts.armed());
  sim.drain();  // the sampler must not keep the run alive
  EXPECT_FALSE(ts.armed());

  const auto& rows = ts.rows();
  ASSERT_FALSE(rows.empty());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i].cycle, 10 * i);  // exact cadence from cycle 0
  EXPECT_GE(rows.back().cycle, 40u);  // covers the last workload event
  EXPECT_DOUBLE_EQ(rows.back().values[0], 10.0);
  double rate_sum = 0;
  for (const auto& row : rows) rate_sum += row.values[1];
  EXPECT_DOUBLE_EQ(rate_sum, 10.0);  // deltas telescope back to the total

  std::ostringstream csv;
  ts.write_csv(csv);
  EXPECT_EQ(csv.str().substr(0, 11), "cycle,x,dx\n");
}

TEST(TelemetrySampler, ValidatesConfiguration) {
  sim::Simulator sim;
  EXPECT_THROW(sim::TelemetrySampler(sim, 0), std::invalid_argument);
  sim::TelemetrySampler ts(sim, 5);
  ts.add_probe("x", [] { return 1.0; });
  ts.start();
  EXPECT_THROW(ts.start(), std::logic_error);  // double start
  EXPECT_THROW(ts.add_probe("y", [] { return 2.0; }), std::logic_error);
  sim.drain();
}

TEST(TelemetrySampler, MirrorsSamplesOntoCounterTracks) {
  sim::Simulator sim;
  MemorySink sink;
  sim.trace().set_sink(&sink);
  sim::TelemetrySampler ts(sim, 10);
  ts.add_probe("x", [] { return 2.5; });
  sim.schedule_in(15, [] {});
  ts.start();
  sim.drain();
  sim.trace().set_sink(nullptr);
  u64 counters = 0;
  for (const auto& ev : sink.events)
    if (ev.kind == sim::TraceEvent::Kind::kCounter) {
      EXPECT_DOUBLE_EQ(ev.value, 2.5);
      ++counters;
    }
  EXPECT_EQ(counters, ts.rows().size());
}

}  // namespace
}  // namespace vmsls
