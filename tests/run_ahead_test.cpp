// Run-ahead: a memory access that nothing else contends with completes
// without a round trip through the event queue (sim/simulator.hpp,
// Simulator::try_advance_to), and every simulated result is unchanged.
//
//   * Equivalence: each configuration runs twice, plain and with a no-op
//     event re-armed every cycle. The ticker is always due before any
//     later cycle, so every run-ahead attempt falls back to scheduling;
//     both runs must agree on cycles, halt times, every stat, the trace
//     stream, the logical event count (minus the ticker's events) and,
//     for serving runs, every request's latency, queue wait and service.
//   * Work count: an uncontended pointer chase schedules at most one event
//     per two memory ops (about three per op without run-ahead), and at 4
//     TLB entries, where most accesses walk, at most one per five (a walk
//     queued about three events before the walk chain ran ahead). A
//     faulting serving run queues at most 1.25 events per episode touch
//     (1.97 without run-ahead) and runs four touches in five in place.
//   * Stack bound: long runs of in-place completions, across accesses,
//     across the levels of walks and across the chunks of one burst, fit
//     a small fixed host stack.
#include <gtest/gtest.h>
#include <pthread.h>

#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hwt/builder.hpp"
#include "interp.hpp"
#include "sim/simulator.hpp"
#include "sls/process_group.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "sls/traffic.hpp"
#include "workloads/workloads.hpp"

namespace vmsls {
namespace {

using hwt::Reg;

// --- the ticker -------------------------------------------------------------

/// A no-op event at every cycle while anything else is pending: with it
/// queued, no try_advance_to can pass the next cycle.
class Ticker {
 public:
  explicit Ticker(sim::Simulator& sim) : sim_(sim) { arm(); }
  u64 ticks() const noexcept { return ticks_; }

 private:
  void arm() {
    sim_.schedule_in(1, [this] {
      ++ticks_;
      if (!sim_.idle()) arm();  // pending excludes this tick while it runs
    });
  }
  sim::Simulator& sim_;
  u64 ticks_ = 0;
};

/// FNV-1a over every field of every trace record.
struct HashSink final : sim::TraceSink {
  u64 hash = 1469598103934665603ull;
  u64 records = 0;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void on_event(const sim::TraceContext& ctx, const sim::TraceEvent& ev) override {
    ++records;
    mix(static_cast<u64>(ev.kind));
    for (const char c : ctx.track_name(ev.track)) mix(static_cast<u8>(c));
    mix(ev.ts);
    for (const char* c = ev.name; *c != '\0'; ++c) mix(static_cast<u8>(*c));
    mix(ev.id);
    mix(ev.aux);
    mix(static_cast<u64>(ev.value * 1e6));
  }
};

struct Outcome {
  Cycles cycles = 0;
  std::map<std::string, Cycles> halts;
  std::map<std::string, double> stats;
  u64 trace_hash = 0;
  u64 trace_records = 0;
  u64 logical_events = 0;  // events_executed minus the ticker's
  u64 scheduled = 0;       // events_scheduled minus the ticker's
  std::map<std::string, std::vector<Cycles>> series;  // per-request values
};

void expect_same(const Outcome& plain, const Outcome& ticked) {
  EXPECT_EQ(plain.cycles, ticked.cycles);
  EXPECT_EQ(plain.halts, ticked.halts);
  EXPECT_EQ(plain.stats, ticked.stats);  // every counter and histogram moment
  EXPECT_EQ(plain.trace_hash, ticked.trace_hash);
  EXPECT_EQ(plain.trace_records, ticked.trace_records);
  EXPECT_EQ(plain.logical_events, ticked.logical_events);
  EXPECT_EQ(plain.series, ticked.series);
}

/// Runs `body(sim, outcome)`, which builds, runs and verifies a
/// configuration and records its cycles and halt times, plainly or with a
/// ticker, then drains and records the rest.
template <class Body>
Outcome observe(bool ticked, Body&& body) {
  sim::Simulator sim;
  HashSink sink;
  sim.trace().set_sink(&sink);
  std::unique_ptr<Ticker> ticker;
  if (ticked) ticker = std::make_unique<Ticker>(sim);
  Outcome o;
  body(sim, o);
  sim.drain();
  sim.trace().set_sink(nullptr);
  const u64 ticks = ticker ? ticker->ticks() : 0;
  o.stats = sim.stats().snapshot();
  o.trace_hash = sink.hash;
  o.trace_records = sink.records;
  o.logical_events = sim.events_executed() - ticks;
  o.scheduled = sim.events_scheduled() - ticks;
  return o;
}

/// Runs `body` plain and ticked, compares, and returns the plain outcome.
/// With `runs_ahead`, the plain run must also have scheduled fewer events:
/// the ticker really forced fallbacks. Software threads never run ahead
/// (their cache completions are ordinary events), so a body without a
/// hardware-thread memory access passes false.
template <class Body>
Outcome check_equivalent(Body body, bool runs_ahead = true) {
  const Outcome plain = observe(false, body);
  const Outcome ticked = observe(true, body);
  expect_same(plain, ticked);
  if (runs_ahead) {
    EXPECT_LT(plain.scheduled, ticked.scheduled);
  }
  return plain;
}

/// Elaborates `app` on `plat`, starts every thread and runs to completion.
void run_app(sim::Simulator& sim, Outcome& o, const sls::AppSpec& app,
             const sls::PlatformSpec& plat,
             const std::function<void(sls::System&)>& setup = {},
             const std::function<void(sls::System&)>& verify = {}) {
  sls::SynthesisFlow flow(plat);
  const auto image = flow.synthesize(app);
  auto system = image.elaborate(sim);
  if (setup) setup(*system);
  system->start_all();
  o.cycles = system->run_to_completion();
  for (const auto& t : app.threads) o.halts[t.name] = system->engine(t.name).halt_time();
  if (verify) verify(*system);
}

/// One streaming hardware-thread kernel: mbox 0 delivers a buffer address
/// and a length in words; the kernel stores, reloads and sums every
/// `stride`-th word, then bursts the first `burst` bytes through its
/// scratchpad and back, and sends the sum to mbox 1.
hwt::Kernel streamer(const std::string& name, i64 stride, i64 burst) {
  constexpr Reg A = 1, N = 2, I = 3, P = 4, V = 5, S = 6, T = 7, Z = 8, B = 9;
  hwt::KernelBuilder kb(name, static_cast<u32>(burst));
  kb.mbox_get(A, 0)
      .mbox_get(N, 0)
      .li(I, 0)
      .li(S, 0)
      .label("loop")
      .slt(T, I, N)
      .beqz(T, "out")
      .shli(P, I, 3)
      .add(P, P, A)
      .store(P, I)
      .load(V, P)
      .add(S, S, V)
      .addi(I, I, stride)
      .jmp("loop")
      .label("out")
      .li(Z, 0)
      .li(B, burst)
      .burst_load(Z, A, B)
      .burst_store(A, Z, B)
      .mbox_put(1, S)
      .halt();
  return kb.build();
}

/// Sum the streamer sends for `words` words at `stride`.
i64 streamer_sum(i64 words, i64 stride) {
  i64 sum = 0;
  for (i64 i = 0; i < words; i += stride) sum += i;
  return sum;
}

// --- equivalence --------------------------------------------------------------

TEST(RunAheadEquivalence, MailboxHandoffBetweenSoftwareThreads) {
  // The putter's completion runs before the taker resumes (Mailbox::put),
  // so a putter that ran ahead inside it would resume the taker late.
  constexpr i64 kItems = 32;
  hwt::KernelBuilder producer("producer");
  {
    constexpr Reg A = 1, I = 2, N = 3, T = 4, V = 5;
    producer.mbox_get(A, 0)
        .li(I, 0)
        .li(N, kItems)
        .label("loop")
        .slt(T, I, N)
        .beqz(T, "out")
        .mbox_put(1, I)
        .load(V, A)
        .addi(I, I, 1)
        .jmp("loop")
        .label("out")
        .halt();
  }
  hwt::KernelBuilder consumer("consumer");
  {
    constexpr Reg I = 1, N = 2, T = 3, V = 4, S = 5;
    consumer.li(I, 0)
        .li(S, 0)
        .li(N, kItems)
        .label("loop")
        .slt(T, I, N)
        .beqz(T, "out")
        .mbox_get(V, 0)
        .add(S, S, V)
        .addi(I, I, 1)
        .jmp("loop")
        .label("out")
        .mbox_put(1, S)
        .halt();
  }
  sls::AppSpec app;
  app.name = "handoff";
  app.add_mailbox("args", 1);
  app.add_mailbox("q", 1);
  app.add_mailbox("sum", 1);
  app.add_buffer("word", 4096);
  app.add_sw_thread("producer", producer.build(), {"args", "q"});
  app.add_sw_thread("consumer", consumer.build(), {"q", "sum"});
  check_equivalent([&](sim::Simulator& sim, Outcome& o) {
    run_app(
        sim, o, app, sls::zynq7020(),
        [&](sls::System& sys) {
          sys.process().mailbox(app.mailbox_index("args")).put(
              static_cast<i64>(sys.buffer("word")), [] {});
        },
        [&](sls::System& sys) {
          i64 sum = 0;
          ASSERT_TRUE(sys.process().mailbox(app.mailbox_index("sum")).try_get(sum));
          EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
        });
  }, /*runs_ahead=*/false);
}

TEST(RunAheadEquivalence, MixedPipelineHwBetweenSwStages) {
  // Integration.MixedPipelineHwBetweenSwStages: software producer, hardware
  // transform, software sink, chained by depth-4 mailboxes.
  auto stage = [](const std::string& name, i64 mulby) {
    hwt::KernelBuilder kb(name);
    constexpr Reg N = 1, I = 2, V = 3, T = 4;
    kb.mbox_get(N, 0)
        .li(I, 0)
        .label("loop")
        .seq(T, I, N)
        .bnez(T, "out")
        .mbox_get(V, 1)
        .muli(V, V, mulby)
        .mbox_put(2, V)
        .addi(I, I, 1)
        .jmp("loop")
        .label("out")
        .halt();
    return kb.build();
  };
  hwt::KernelBuilder src("src");
  {
    constexpr Reg N = 1, I = 2, T = 3;
    src.mbox_get(N, 0)
        .li(I, 0)
        .label("loop")
        .seq(T, I, N)
        .bnez(T, "out")
        .mbox_put(1, I)
        .addi(I, I, 1)
        .jmp("loop")
        .label("out")
        .halt();
  }
  sls::AppSpec app;
  app.name = "mixed";
  app.add_mailbox("args", 8);
  app.add_mailbox("q1", 4);
  app.add_mailbox("q2", 4);
  app.add_mailbox("out", 64);
  app.add_sw_thread("producer", src.build(), {"args", "q1"});
  app.add_hw_thread("xform", stage("xform", 3), {"args", "q1", "q2"});
  app.add_sw_thread("sink", stage("sink", 1), {"args", "q2", "out"});
  constexpr i64 kItems = 16;
  const auto body = [&](sim::Simulator& sim, Outcome& o) {
    run_app(
        sim, o, app, sls::zynq7020(),
        [&](sls::System& sys) {
          for (int i = 0; i < 3; ++i) sys.process().mailbox(0).put(kItems, [] {});
        },
        [&](sls::System& sys) {
          auto& out = sys.process().mailbox(app.mailbox_index("out"));
          for (i64 i = 0; i < kItems; ++i) {
            i64 v = 0;
            ASSERT_TRUE(out.try_get(v));
            EXPECT_EQ(v, i * 3);
          }
        });
  };
  check_equivalent(body, /*runs_ahead=*/false);  // no stage touches memory
}

/// `threads` streamer hardware threads on one system, each over its own
/// buffer, with a 4-entry TLB so they queue on the shared walker.
sls::AppSpec streamers(unsigned threads, i64 words, i64 stride, i64 burst) {
  sls::AppSpec app;
  app.name = "streamers";
  mem::TlbConfig tlb;
  tlb.entries = 4;
  tlb.ways = 4;
  for (unsigned t = 0; t < threads; ++t) {
    const std::string id = std::to_string(t);
    app.add_mailbox("args" + id, 2);
    app.add_mailbox("sum" + id, 1);
    app.add_buffer("buf" + id, static_cast<u64>(words) * 8);
    app.add_hw_thread("s" + id, streamer("s" + id, stride, burst), {"args" + id, "sum" + id})
        .tlb_override = tlb;
  }
  return app;
}

void feed_streamers(sls::System& sys, const sls::AppSpec& app, unsigned threads, i64 words) {
  for (unsigned t = 0; t < threads; ++t) {
    const std::string id = std::to_string(t);
    auto& args = sys.process().mailbox(app.mailbox_index("args" + id));
    args.put(static_cast<i64>(sys.buffer("buf" + id)), [] {});
    args.put(words, [] {});
  }
}

void check_streamers(sls::System& sys, const sls::AppSpec& app, unsigned threads, i64 words,
                     i64 stride) {
  for (unsigned t = 0; t < threads; ++t) {
    i64 sum = 0;
    ASSERT_TRUE(sys.process().mailbox(app.mailbox_index("sum" + std::to_string(t))).try_get(sum));
    EXPECT_EQ(sum, streamer_sum(words, stride));
  }
}

TEST(RunAheadEquivalence, TwoHardwareThreadsShareWalkerAndBus) {
  constexpr unsigned kThreads = 2;
  constexpr i64 kWords = 8192, kStride = 37, kBurst = 2048;
  const sls::AppSpec app = streamers(kThreads, kWords, kStride, kBurst);
  check_equivalent([&](sim::Simulator& sim, Outcome& o) {
    run_app(
        sim, o, app, sls::zynq7020(),
        [&](sls::System& sys) { feed_streamers(sys, app, kThreads, kWords); },
        [&](sls::System& sys) { check_streamers(sys, app, kThreads, kWords, kStride); });
  });
}

TEST(RunAheadEquivalence, RandomKernelsOnHardwareThreads) {
  // Seeded random programs (ALU, branches, scratchpad, batch yields) on
  // hardware threads beside a streamer, so their events interleave with
  // its memory path.
  constexpr i64 kWords = 2048, kStride = 5, kBurst = 512;
  for (u64 seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("random_kernel seed " + std::to_string(seed));
    sls::AppSpec app = streamers(1, kWords, kStride, kBurst);
    app.add_hw_thread("rnd_a", hwt::random_kernel(seed));
    app.add_hw_thread("rnd_b", hwt::random_kernel(seed + 100, 96));
    check_equivalent([&](sim::Simulator& sim, Outcome& o) {
      run_app(
          sim, o, app, sls::zynq7020(),
          [&](sls::System& sys) { feed_streamers(sys, app, 1, kWords); },
          [&](sls::System& sys) { check_streamers(sys, app, 1, kWords, kStride); });
    });
  }
}

TEST(RunAheadEquivalence, FaultingOversubscribedMix) {
  // fig10's smallest mix: hash_join and pointer_chase cold-started on one
  // global CLOCK pool at 200% of their working sets, so MMU-raised faults,
  // walks, evictions and swap traffic interleave with the memory path.
  const Outcome plain = check_equivalent([](sim::Simulator& sim, Outcome& o) {
    workloads::WorkloadParams p;
    p.n = 512;
    const std::vector<workloads::Workload> wls = {workloads::make_hash_join(p),
                                                  workloads::make_pointer_chase(p)};
    u64 pages = 0;
    for (const auto& wl : wls)
      for (const auto& buf : wl.buffers) pages += ceil_div(buf.bytes, u64{4096});
    sls::PlatformSpec plat = sls::zynq7020();
    paging::FramePoolConfig pool_cfg;
    pool_cfg.mode = paging::BudgetMode::kGlobal;
    pool_cfg.total_frames = std::max<u64>(4, pages / 2);
    sls::ProcessGroup group(sim, plat, pool_cfg);
    for (std::size_t i = 0; i < wls.size(); ++i) {
      sls::PlatformSpec proc_plat = plat;
      proc_plat.pager.budget_mode = paging::BudgetMode::kGlobal;
      sls::SynthesisFlow flow(proc_plat);
      const auto image =
          flow.synthesize(workloads::single_thread_app(wls[i], sls::ThreadKind::kHardware));
      auto& sys = group.add_process(image, std::string("p") + std::to_string(i));
      wls[i].setup(sys);
      for (const auto& buf : sys.image().app().buffers)
        sys.process().evict(sys.buffer(buf.name), buf.bytes);
    }
    group.start_all();
    o.cycles = group.run_to_completion();
    for (std::size_t i = 0; i < wls.size(); ++i) {
      o.halts["p" + std::to_string(i)] = group.process(i).engine("worker").halt_time();
      EXPECT_TRUE(wls[i].verify(group.process(i)));
    }
  });
  EXPECT_GT(plain.stats.at("pool.evictions"), 0.0);
  EXPECT_GT(plain.trace_records, 0u);  // the pager and OS emit spans
}

/// A TLB of `entries` entries on the default geometry; 4 is fully
/// associative (4 ways, one set), so pointer_chase walks on most accesses.
mem::TlbConfig small_tlb(unsigned entries = 4) { return mem::TlbConfig{}.with_entries(entries); }

/// `wl` alone on a zynq7020 hardware thread with a 4-entry TLB; with
/// `cold`, every buffer page starts evicted, so the run faults.
void run_small_tlb(sim::Simulator& sim, Outcome& o, const workloads::Workload& wl,
                   bool prefetch = false, bool cold = false) {
  sls::AppSpec app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  app.threads[0].tlb_override = small_tlb();
  app.threads[0].prefetch_next_page = prefetch;
  run_app(
      sim, o, app, sls::zynq7020(),
      [&](sls::System& sys) {
        wl.setup(sys);
        if (cold)
          for (const auto& buf : sys.image().app().buffers)
            sys.process().evict(sys.buffer(buf.name), buf.bytes);
      },
      [&](sls::System& sys) { EXPECT_TRUE(wl.verify(sys)); });
}

workloads::Workload chase(u64 n) {
  workloads::WorkloadParams p;
  p.n = n;
  return workloads::make_pointer_chase(p);
}

TEST(RunAheadEquivalence, SmallTlbPointerChaseWalksInPlace) {
  const auto wl = chase(2048);
  const Outcome plain = check_equivalent(
      [&](sim::Simulator& sim, Outcome& o) { run_small_tlb(sim, o, wl); });
  EXPECT_GT(plain.stats.at("walker.walks"), 1000.0);
}

TEST(RunAheadEquivalence, SmallTlbPointerChaseWithNextPagePrefetch) {
  // The prefetch walk queues behind the demand walk at the same cycle, so
  // the demand walk stays on the scheduled path; its PTE reads do not.
  const auto wl = chase(2048);
  const Outcome plain = check_equivalent([&](sim::Simulator& sim, Outcome& o) {
    run_small_tlb(sim, o, wl, /*prefetch=*/true);
  });
  EXPECT_GT(plain.stats.at("hwt.worker.mmu.prefetches"), 0.0);
  EXPECT_GT(plain.stats.at("hwt.worker.mmu.prefetch_fills"), 0.0);
}

/// A read-only hardware-thread kernel: mbox 0 delivers a buffer address
/// and a length in words; the kernel loads every `stride`-th word, `passes`
/// times over, and sends the sum to mbox 1.
hwt::Kernel page_reader(const std::string& name, i64 stride, i64 passes) {
  constexpr Reg A = 1, N = 2, I = 3, P = 4, V = 5, S = 6, T = 7, R = 8;
  hwt::KernelBuilder kb(name);
  kb.mbox_get(A, 0)
      .mbox_get(N, 0)
      .li(S, 0)
      .li(R, passes)
      .label("pass")
      .li(I, 0)
      .label("loop")
      .slt(T, I, N)
      .beqz(T, "next")
      .shli(P, I, 3)
      .add(P, P, A)
      .load(V, P)
      .add(S, S, V)
      .addi(I, I, stride)
      .jmp("loop")
      .label("next")
      .addi(R, R, -1)
      .bnez(R, "pass")
      .mbox_put(1, S)
      .halt();
  return kb.build();
}

TEST(RunAheadEquivalence, WalksQueueOnOneWalkerPort) {
  // Two readers with 4-entry TLBs, striding about a page per load over 32
  // pages three times, on one walker port: walks collide, and a finishing
  // walk hands the port to the next queued one at its finish cycle (so its
  // own continuation must not run ahead). Loads only, so after the first
  // pass no A/D write-back occupies the bus and the data could run ahead.
  constexpr unsigned kThreads = 2;
  constexpr i64 kWords = 32 * 512, kStride = 509, kPasses = 3;
  sls::AppSpec app;
  app.name = "readers";
  for (unsigned t = 0; t < kThreads; ++t) {
    const std::string id = std::to_string(t);
    app.add_mailbox("args" + id, 2);
    app.add_mailbox("sum" + id, 1);
    app.add_buffer("buf" + id, static_cast<u64>(kWords) * 8);
    app.add_hw_thread("r" + id, page_reader("r" + id, kStride, kPasses), {"args" + id, "sum" + id})
        .tlb_override = small_tlb();
  }
  sls::PlatformSpec plat = sls::zynq7020();
  plat.walker.ports = 1;
  const Outcome plain = check_equivalent([&](sim::Simulator& sim, Outcome& o) {
    run_app(sim, o, app, plat,
            [&](sls::System& sys) { feed_streamers(sys, app, kThreads, kWords); });
  });
  EXPECT_GT(plain.stats.at("walker.walks"), 150.0);
  EXPECT_GT(plain.stats.at("walker.queue_wait.max"), 0.0);
}

TEST(RunAheadEquivalence, ColdStartedMemberFaultsAndPostsAdWrites) {
  // Every page starts evicted: walks fault into the OS, which raises from
  // an event without the run-ahead token, and leaf fills and write fills
  // post A/D write-backs.
  workloads::WorkloadParams p;
  p.n = 512;
  const auto wl = workloads::make_hash_join(p);
  const Outcome plain = check_equivalent([&](sim::Simulator& sim, Outcome& o) {
    run_small_tlb(sim, o, wl, /*prefetch=*/false, /*cold=*/true);
  });
  EXPECT_GT(plain.stats.at("hwt.worker.mmu.faults"), 0.0);
  EXPECT_GT(plain.stats.at("walker.ad_writebacks"), 0.0);
}

/// The serving run's shape: every request is one episode of this many
/// touches, each `kTouchCost` cycles after the one before.
constexpr unsigned kEpisodeTouches = 24;
constexpr Cycles kTouchCost = 20;

/// A 4-worker open-arrival serving run: each worker's frame budget sits
/// well below its arena and all share one swap device dispatching by
/// `sched`, so episodes fault, evict, write back and queue on the device.
sls::TrafficDriver::Report run_serving(sim::Simulator& sim, paging::SwapSchedPolicy sched,
                                       unsigned readahead) {
  sls::PlatformSpec plat = sls::zynq7020();
  plat.pager.budget_mode = paging::BudgetMode::kPerProcess;
  plat.pager.policy = paging::PolicyKind::kClock;
  plat.pager.swap.shared = true;
  plat.pager.swap.sched = sched;
  plat.pager.swap.readahead = readahead;
  plat.pager.swap.read_latency = 60;
  plat.pager.swap.write_latency = 120;
  plat.pager.swap.bytes_per_cycle = 64;
  plat.traffic.requests = 120;
  plat.traffic.queue_capacity = 256;
  plat.traffic.episode_touches = kEpisodeTouches;
  plat.traffic.arena_pages = 32;
  plat.traffic.touch_cost = kTouchCost;
  plat.traffic.write_ratio = 0.25;
  plat.traffic.arrival.mean_gap = 1500;
  plat.traffic.arrival.seed = 5;
  paging::FramePoolConfig pool_cfg;
  pool_cfg.mode = paging::BudgetMode::kPerProcess;
  pool_cfg.policy = plat.pager.policy;
  sls::ProcessGroup group(sim, plat, pool_cfg);
  for (unsigned i = 0; i < 4; ++i) {
    workloads::WorkloadParams p;
    p.n = 64;
    p.seed = 1 + i;
    sls::PlatformSpec proc_plat = plat;
    proc_plat.pager.frame_budget = 12;
    sls::SynthesisFlow flow(proc_plat);
    group.add_process(flow.synthesize(workloads::single_thread_app(workloads::make_vecadd(p),
                                                                   sls::ThreadKind::kHardware)),
                      "w" + std::to_string(i));
  }
  sls::TrafficDriver driver(group, plat.traffic);
  return driver.run();
}

TEST(RunAheadEquivalence, ServingEpisodes) {
  // Episode touches run ahead between faults, and so does the touch after
  // a lone swap completion. Priority dispatch also batches readahead reads,
  // whose completions stay on the queue.
  const std::pair<paging::SwapSchedPolicy, unsigned> configs[] = {
      {paging::SwapSchedPolicy::kFifo, 0}, {paging::SwapSchedPolicy::kPriority, 2}};
  for (const auto& [sched, readahead] : configs) {
    SCOPED_TRACE(paging::swap_sched_name(sched));
    const Outcome plain = check_equivalent([&](sim::Simulator& sim, Outcome& o) {
      const auto rep = run_serving(sim, sched, readahead);
      o.cycles = sim.now();
      o.series["latency"] = rep.latency;
      o.series["queue_wait"] = rep.queue_wait;
      o.series["service"] = rep.service;
    });
    const auto& service = plain.series.at("service");
    EXPECT_EQ(service.size(), 120u);
    // Each touch comes a touch cost after the one before, however it ran.
    for (const Cycles c : service) EXPECT_GE(c, kEpisodeTouches * kTouchCost);
    EXPECT_GT(plain.stats.at("swap.reads"), 0.0);
    EXPECT_GT(plain.stats.at("swap.writes"), 0.0);
    if (readahead > 0) {
      EXPECT_GT(plain.stats.at("w0.pager.prefetches"), 0.0);
    }
  }
}

// --- work count and stack bound ------------------------------------------------

struct ChaseRun {
  u64 mem_ops = 0;
  u64 scheduled = 0;
};

/// One hardware thread chasing `n` pointers over resident (pinned) buffers,
/// with the platform's TLB or, when `tlb_entries` is set, one that small.
ChaseRun run_pointer_chase(u64 n = 4096, unsigned tlb_entries = 0) {
  const auto wl = chase(n);
  sls::AppSpec app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  if (tlb_entries != 0) app.threads[0].tlb_override = small_tlb(tlb_entries);
  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);
  const u64 scheduled0 = sim.events_scheduled();
  system->start_all();
  system->run_to_completion();
  if (!wl.verify(*system)) throw std::runtime_error("pointer_chase failed verification");
  ChaseRun r;
  r.scheduled = sim.events_scheduled() - scheduled0;
  r.mem_ops = static_cast<u64>(sim.stats().snapshot().at("hwt.worker.mem_ops"));
  return r;
}

/// One hardware thread bursting 2 MiB in and out of its scratchpad, four
/// times over one 2 MiB page: 4096 chunks per burst at the 512-byte cap,
/// nearly all completing in place.
void run_long_bursts() {
  constexpr i64 kBytes = 2 * MiB;
  constexpr Reg A = 1, Z = 2, B = 3, I = 4;
  hwt::KernelBuilder kb("bursts", static_cast<u32>(kBytes));
  kb.mbox_get(A, 0).li(Z, 0).li(B, kBytes).li(I, 4)
      .label("loop")
      .burst_load(Z, A, B)
      .burst_store(A, Z, B)
      .addi(I, I, -1)
      .bnez(I, "loop")
      .halt();
  sls::AppSpec app;
  app.name = "bursts";
  app.add_mailbox("args", 1);
  app.add_buffer("buf", kBytes);
  app.add_hw_thread("bursts", kb.build(), {"args"});
  sls::PlatformSpec plat = sls::zynq7045();  // BRAM for a 2 MiB scratchpad
  plat.page_table.page_bits = 21;
  sls::SynthesisFlow flow(plat);
  const auto image = flow.synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  system->process().mailbox(0).put(static_cast<i64>(system->buffer("buf")), [] {});
  system->start_all();
  system->run_to_completion();
  if (sim.stats().snapshot().at("bus.requests") < 8 * 4096)
    throw std::runtime_error("bursts moved fewer chunks than planned");
}

/// Runs `fn` to completion on a thread with a `bytes` stack; rethrows its
/// exception. A stack that grows with the access count overflows it.
void on_small_stack(std::size_t bytes, const std::function<void()>& fn) {
  struct Job {
    const std::function<void()>* fn;
    std::exception_ptr error;
  } job{&fn, nullptr};
  pthread_attr_t attr{};
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, bytes), 0);
  pthread_t thread{};
  const auto entry = [](void* arg) -> void* {
    auto* j = static_cast<Job*>(arg);
    try {
      (*j->fn)();
    } catch (...) {
      j->error = std::current_exception();
    }
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, entry, &job), 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
  if (job.error) std::rethrow_exception(job.error);
}

TEST(RunAheadWork, UncontendedPointerChaseSchedulesUnderHalfAnEventPerAccess) {
  const ChaseRun r = run_pointer_chase();
  ASSERT_GT(r.mem_ops, 4096u);
  const double per_op = static_cast<double>(r.scheduled) / static_cast<double>(r.mem_ops);
  EXPECT_LE(per_op, 0.5) << r.scheduled << " events scheduled for " << r.mem_ops
                         << " memory ops";
}

TEST(RunAheadWork, SmallTlbPointerChaseSchedulesUnderAFifthOfAnEventPerAccess) {
  // Most accesses miss a 4-entry TLB: each walk's setup, PTE reads and
  // fill complete in place. 1.42 events per op queued before they did.
  const ChaseRun r = run_pointer_chase(8192, 4);
  ASSERT_GT(r.mem_ops, 8192u);
  const double per_op = static_cast<double>(r.scheduled) / static_cast<double>(r.mem_ops);
  EXPECT_LE(per_op, 0.2) << r.scheduled << " events scheduled for " << r.mem_ops
                         << " memory ops";
}

TEST(RunAheadWork, ServingRunsMostTouchesInPlace) {
  // About 0.7 swap-ins per touch, yet most touches, the one after a lone
  // swap-in included, run in place; a touch queues when it starts an
  // episode, follows a batched or coalesced swap-in, or another event is
  // due first. 1.97 events per touch queued before touches ran ahead.
  sim::Simulator sim;
  const auto rep = run_serving(sim, paging::SwapSchedPolicy::kFifo, 0);
  const double touches = static_cast<double>(rep.completed * kEpisodeTouches);
  const double queued = static_cast<double>(sim.events_scheduled()) / touches;
  const double ran_ahead = static_cast<double>(sim.run_ahead_steps()) / touches;
  EXPECT_LE(queued, 1.25) << sim.events_scheduled() << " events queued for " << touches
                          << " touches";
  EXPECT_GE(ran_ahead, 0.8) << sim.run_ahead_steps() << " run-ahead steps for " << touches
                            << " touches";
}

TEST(RunAheadWork, LongRunsFitASmallFixedStack) {
  constexpr std::size_t kStack = 1 * MiB;
  on_small_stack(kStack, [] { run_pointer_chase(); });
  on_small_stack(kStack, [] { run_pointer_chase(8192, 4); });
  on_small_stack(kStack, [] { run_long_bursts(); });
}

}  // namespace
}  // namespace vmsls
