// Shared harness for the experiment binaries.
//
// A bench runs a workload through one of three recipes, each defined only
// here: a single-thread run (run_workload, run_image), the copy-based
// offload flow (run_offload) and an over-subscription member (member_pool,
// add_member, cold_start). Each builds the app around the workload,
// synthesizes, elaborates, (optionally) perturbs memory state, runs,
// verifies, and collects cycles + component statistics. Results print
// through util/Table so outputs are uniform and scrapable.
//
// The gated benches (fig12–fig15, micro_core, micro_paging) share main():
// run_main parses the shared flags into a Cli and maps failures to exit
// codes, run_sharded is the serial == sharded gate, and write_artifacts
// writes the BENCH JSON + summary pair. The micro benches share measure().
#pragma once

#include <charconv>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/paging/frame_pool.hpp"
#include "sls/process_group.hpp"
#include "sls/sharded_runner.hpp"
#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "util/table.hpp"
#include "workloads/workloads.hpp"

namespace vmsls::bench {

/// Paper shape gate: the simulated trend a figure reports must hold. A
/// violation throws naming the figure and row, so the bench exits non-zero
/// with the reason before printing, and its golden case fails.
inline void shape_gate(bool holds, const std::string& what) {
  if (!holds) throw std::runtime_error("shape gate failed: " + what);
}

/// Host wall-clock stopwatch for measuring the harness itself.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

constexpr double kMinSampleMs = 200.0;

/// A host-throughput sample of the micro benches (micro_core, micro_paging).
struct Rate {
  double items_per_sec = 0;
  double host_ms = 0;   // of the final (reported) repetition batch
  u64 items = 0;        // per repetition
  u64 reps = 0;         // repetitions in the reported batch
  u64 cycles = 0;       // simulated cycles per repetition; 0 = host-only section
};

/// Times one batch of `reps` calls of `body`, each processing `items` units.
template <typename F>
Rate batch(u64 items, u64 reps, F& body) {
  WallTimer t;
  for (u64 r = 0; r < reps; ++r) body();
  const double ms = t.ms();
  Rate rate;
  rate.items = items;
  rate.reps = reps;
  rate.host_ms = ms;
  rate.items_per_sec = static_cast<double>(items * reps) / (ms / 1000.0);
  return rate;
}

/// Repeats `body` (which processes `items` units per call) until the batch
/// has run for at least kMinSampleMs, then reports the steady-state rate.
template <typename F>
Rate measure(u64 items, F&& body) {
  body();  // warm-up: page in code, size pools
  for (u64 reps = 1;;) {
    const Rate rate = batch(items, reps, body);
    if (rate.host_ms >= kMinSampleMs) return rate;
    reps = rate.host_ms > 1.0
               ? 1 + static_cast<u64>(static_cast<double>(reps) * kMinSampleMs / rate.host_ms)
               : reps * 8;
  }
}

/// Fast swap timings for rigs that measure fault-path structure, not flash.
inline paging::SwapConfig fast_swap() {
  paging::SwapConfig cfg;
  cfg.read_latency = 50;
  cfg.write_latency = 100;
  cfg.bytes_per_cycle = 64;
  return cfg;
}

/// `name`'s value in a stat snapshot; 0 for a stat the run never registered.
inline double stat_value(const std::map<std::string, double>& snapshot, const std::string& name) {
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second;
}

/// A section's deterministic host-work counts: the events it handed to the
/// scheduler (sim::Simulator::events_scheduled()), the run-ahead steps the
/// scheduler granted it (run_ahead_steps()) and the whole pages its address
/// spaces copied (sls::ProcessGroup::copied_pages; 0 where a run does not
/// count them). Take one before and one after, and subtract.
struct HostWork {
  u64 scheduled = 0;
  u64 run_ahead = 0;
  u64 copied_pages = 0;

  static HostWork of(const sim::Simulator& sim, u64 copied_pages = 0) {
    return {sim.events_scheduled(), sim.run_ahead_steps(), copied_pages};
  }
  HostWork operator-(const HostWork& o) const {
    return {scheduled - o.scheduled, run_ahead - o.run_ahead, copied_pages - o.copied_pages};
  }
  HostWork operator+(const HostWork& o) const {
    return {scheduled + o.scheduled, run_ahead + o.run_ahead, copied_pages + o.copied_pages};
  }
};

struct RunResult {
  Cycles cycles = 0;
  std::map<std::string, double> stats;  // full registry snapshot
  sls::SynthesisReport report;
  u64 events = 0;      // scheduler events executed during the run
  HostWork work;       // host work during the run
  double host_ms = 0;  // host wall-clock spent inside run_to_completion

  double stat(const std::string& name) const { return stat_value(stats, name); }
};

/// Accumulates a bench's measured sections and writes them as JSON: one
/// record per section with its simulated cycles, events and pager faults,
/// the events it queued (host work, deterministic), plus extra simulated
/// metrics. Host time goes to stderr, never into the file, so a --smoke
/// artifact is byte-identical on every host and its smoke test diffs it
/// against a committed copy.
class EngineBenchReport {
 public:
  void add(const std::string& name, Cycles cycles, u64 events, const HostWork& work, u64 faults,
           double host_ms) {
    entries_.push_back(Entry{name, cycles, events, work, faults, {}});
    std::cerr << "[host] " << name << " " << host_ms << " ms\n";
  }

  /// Attaches an extra simulated metric to an already-added section (e.g.
  /// fig14's dedup_ratio / cow_fault_cycles).
  void add_metric(const std::string& section, const std::string& key, double value) {
    for (auto& e : entries_) {
      if (e.name == section) {
        e.extra.emplace_back(key, value);
        return;
      }
    }
    throw std::runtime_error("EngineBenchReport: no section '" + section + "' to attach " + key);
  }

  /// Pager faults over every section.
  u64 faults() const {
    u64 n = 0;
    for (const Entry& e : entries_) n += e.faults;
    return n;
  }

  /// Writes the accumulated entries as a JSON array. Schema per entry:
  ///   {"name", "cycles", "events", "scheduled", "run_ahead", "copied_pages",
  ///    "faults", extras...}
  /// "events" is sim::Simulator::events_executed() over the section (the
  /// logical count), "scheduled" its events_scheduled(): the events that
  /// went through the queue, which run-ahead and posted writes avoid.
  /// "run_ahead" is its granted run-ahead steps (run_ahead_steps()), each
  /// one logical event that ran in place of a queued one. "copied_pages"
  /// is the whole pages the section's address spaces copied on the host
  /// (sls::ProcessGroup::copied_pages).
  /// "cycles" is 0 for host-only sections with no simulated-time span, and
  /// the host-work fields are 0 for rows that do not count them.
  void write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "[\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << "  {\"name\": \"" << e.name << "\", \"cycles\": " << e.cycles
          << ", \"events\": " << e.events << ", \"scheduled\": " << e.work.scheduled
          << ", \"run_ahead\": " << e.work.run_ahead
          << ", \"copied_pages\": " << e.work.copied_pages << ", \"faults\": " << e.faults;
      for (const auto& [key, value] : e.extra) out << ", \"" << key << "\": " << value;
      out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "]\n";
  }

 private:
  struct Entry {
    std::string name;
    Cycles cycles = 0;
    u64 events = 0;
    HostWork work;
    u64 faults = 0;
    std::vector<std::pair<std::string, double>> extra;
  };
  std::vector<Entry> entries_;
};

struct RunOptions {
  sls::PlatformSpec platform = sls::zynq7020();
  sls::ThreadKind kind = sls::ThreadKind::kHardware;
  sls::Addressing addressing = sls::Addressing::kVirtual;
  bool pinned_buffers = true;
  /// Runs after setup, before the threads start (evictions, extra args...).
  std::function<void(sls::System&)> pre_run;
  /// Runs after completion + verification, with the live stat registry
  /// still in scope (pager summaries, CSV dumps...).
  std::function<void(sls::System&, sim::Simulator&)> post_run;
  Cycles max_cycles = 4'000'000'000ull;
};

/// A run whose workload output disagrees with the workload's golden model.
struct VerificationError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- the run recipes ---------------------------------------------------------

/// Recipe 1 on an already synthesized `image` (what a DSE evaluator gets):
/// elaborates it onto `sim`, sets the workload up, runs opt.pre_run, runs
/// to completion and verifies, then snapshots the stats and runs
/// opt.post_run. Throws VerificationError on a wrong result.
inline RunResult run_image(const workloads::Workload& wl, const sls::SystemImage& image,
                           sim::Simulator& sim, const RunOptions& opt = {}) {
  auto system = image.elaborate(sim);
  wl.setup(*system);
  if (opt.pre_run) opt.pre_run(*system);
  system->start_all();

  RunResult r;
  const u64 events_before = sim.events_executed();
  const HostWork work_before = HostWork::of(sim);
  WallTimer timer;
  r.cycles = system->run_to_completion(opt.max_cycles);
  r.host_ms = timer.ms();
  r.events = sim.events_executed() - events_before;
  r.work = HostWork::of(sim) - work_before;
  if (!wl.verify(*system))
    throw VerificationError("workload '" + wl.name + "' failed verification");
  r.stats = sim.stats().snapshot();
  r.report = image.report();
  if (opt.post_run) opt.post_run(*system, sim);
  return r;
}

/// Recipe 1 for `app`, a single_thread_app the caller may have edited (TLB
/// override, prefetch, footprint hint): synthesizes it for opt.platform and
/// runs it on `sim` (opt.kind, addressing and pinned_buffers are the app's
/// business here).
inline RunResult run_workload(const workloads::Workload& wl, const sls::AppSpec& app,
                              sim::Simulator& sim, const RunOptions& opt = {}) {
  return run_image(wl, sls::SynthesisFlow(opt.platform).synthesize(app), sim, opt);
}

/// Recipe 1 for `app` on a fresh simulator.
inline RunResult run_workload(const workloads::Workload& wl, const sls::AppSpec& app,
                              const RunOptions& opt = {}) {
  sim::Simulator sim;
  return run_workload(wl, app, sim, opt);
}

/// Recipe 1, full trip: app (from opt.kind, addressing, pinned_buffers) ->
/// image -> system -> run -> verify.
inline RunResult run_workload(const workloads::Workload& wl, const RunOptions& opt = {}) {
  return run_workload(
      wl, workloads::single_thread_app(wl, opt.kind, opt.addressing, opt.pinned_buffers), opt);
}

/// A workload's buffer footprint in pages of `page` bytes.
inline u64 ws_pages(const workloads::Workload& wl, u64 page) {
  u64 bytes = 0;
  for (const auto& buf : wl.buffers) bytes += buf.bytes;
  return ceil_div(bytes, page);
}

/// Member `index` of the multi-process mixes (fig10, fig12): hash_join,
/// pointer_chase and bfs in turn, n = 1024, each on its own data seed.
inline workloads::Workload make_mix_member(unsigned index) {
  workloads::WorkloadParams p;
  p.n = 1024;
  p.seed = 42 + index;  // distinct data per process
  switch (index % 3) {
    case 0: return workloads::make_hash_join(p);
    case 1: return workloads::make_pointer_chase(p);
    default: return workloads::make_bfs(p);
  }
}

/// The benches' drain budget (Simulator::drain, ProcessGroup::drain).
inline constexpr Cycles kDrainCycles = 2'000'000'000ull;

/// Evicts every workload buffer so the run demand-faults its working set.
inline void evict_all_buffers(sls::System& system) {
  for (const auto& buf : system.image().app().buffers)
    system.process().evict(system.buffer(buf.name), buf.bytes);
}

/// The copy-based offload flow's copy phase: copies each buffer in `names`
/// into its pinned twin (`to_pinned`) or back out to user memory, one
/// transfer after another as one ioctl would drive them, and runs the
/// simulator until the last completes.
inline void copy_buffers(sls::System& system,
                         const std::map<std::string, dma::PinnedBuffer>& pinned,
                         const std::vector<std::string>& names, bool to_pinned) {
  std::size_t next = 0;
  bool done = false;
  // Each transfer's completion starts the next one through a reference to
  // this loop, so the move-only completion carries no copy of it.
  auto copy_next = [&](auto& self) -> void {
    if (next >= names.size()) {
      done = true;
      return;
    }
    const std::string& name = names[next++];
    u64 bytes = 0;
    for (const auto& buf : system.image().app().buffers)
      if (buf.name == name) bytes = buf.bytes;
    if (to_pinned)
      system.offload().copy_in(system.buffer(name), pinned.at(name), 0, bytes,
                               [&self] { self(self); });
    else
      system.offload().copy_out(pinned.at(name), 0, system.buffer(name), bytes,
                                [&self] { self(self); });
  };
  copy_next(copy_next);
  if (!system.simulator().run_until([&done] { return done; }))
    throw std::runtime_error(to_pinned ? "copy-in stalled" : "copy-out stalled");
}

/// The physically addressed kernel's arguments, built from the pinned
/// copies and the virtual-address args the workload's setup pushed
/// (`seed`: offsets and scalars carry over). It may also rewrite pinned
/// contents (pointer marshalling), which is charged zero time.
using OffloadArgs = std::function<std::vector<i64>(
    sls::System&, const std::map<std::string, dma::PinnedBuffer>&, const std::vector<i64>& seed)>;

/// Recipe 2, the copy-based offload flow: `wl` runs physically addressed
/// (opt.addressing does not apply) with the DMA engine and offload driver
/// elaborated on opt.platform. After setup the pushed args are drained,
/// opt.pre_run runs (a cold start evicts here), every buffer gets a pinned
/// copy, `in` is copied in, the kernel runs on `make_args`, `out` is copied
/// back and the result verified. `cycles` spans copy-in to copy-out. Gates:
/// the event queue drains and every transfer pin is released.
inline RunResult run_offload(const workloads::Workload& wl, const std::vector<std::string>& in,
                             const std::vector<std::string>& out, const OffloadArgs& make_args,
                             const RunOptions& opt = {}) {
  const auto app = workloads::single_thread_app(wl, opt.kind, sls::Addressing::kPhysical,
                                                opt.pinned_buffers);
  sls::SynthesisOptions synth;
  synth.include_dma = true;
  const sls::SystemImage image = sls::SynthesisFlow(opt.platform, synth).synthesize(app);
  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);

  auto& args = system->process().mailbox(app.mailbox_index("args"));
  std::vector<i64> seed;
  for (i64 a = 0; args.try_get(a);) seed.push_back(a);
  if (opt.pre_run) opt.pre_run(*system);

  std::map<std::string, dma::PinnedBuffer> pinned;
  for (const auto& buf : app.buffers) pinned[buf.name] = system->offload().alloc_pinned(buf.bytes);

  RunResult r;
  const Cycles t0 = sim.now();
  const u64 events_before = sim.events_executed();
  const HostWork work_before = HostWork::of(sim);
  WallTimer timer;
  copy_buffers(*system, pinned, in, /*to_pinned=*/true);
  for (i64 a : make_args(*system, pinned, seed)) args.put(a, [] {});
  system->start_all();
  system->run_to_completion(opt.max_cycles);
  copy_buffers(*system, pinned, out, /*to_pinned=*/false);
  r.cycles = sim.now() - t0;
  r.host_ms = timer.ms();
  r.events = sim.events_executed() - events_before;
  r.work = HostWork::of(sim) - work_before;
  if (!wl.verify(*system))
    throw VerificationError("workload '" + wl.name + "' failed verification after offload");

  // No orphaned waiter or daemon, and no pin outlives its transfer.
  sim.drain(kDrainCycles);
  if (system->address_space().pinned_pages() != 0)
    throw std::runtime_error(wl.name + ": offload pins leaked");
  r.stats = sim.stats().snapshot();
  r.report = image.report();
  if (opt.post_run) opt.post_run(*system, sim);
  return r;
}

/// Recipe 3's machine: the FramePool config that mirrors `plat`'s pager
/// budget mode, policy and policy seed.
inline paging::FramePoolConfig member_pool(const sls::PlatformSpec& plat) {
  paging::FramePoolConfig cfg;
  cfg.mode = plat.pager.budget_mode;
  cfg.policy = plat.pager.policy;
  cfg.policy_seed = plat.pager.policy_seed;
  return cfg;
}

/// Recipe 3, an over-subscription member: `wl` as one hardware thread on a
/// copy of `plat` whose pager budget is `frame_budget`, added to `group` as
/// "p<i>" (i = its member index). Neither set up nor evicted: cold_start
/// does both, after whatever the caller binds first. Unpinned buffers stay
/// unmapped until first touch, so a file can be bound over them.
inline sls::System& add_member(sls::ProcessGroup& group, const workloads::Workload& wl,
                               sls::PlatformSpec plat, u64 frame_budget,
                               bool pinned_buffers = true) {
  plat.pager.frame_budget = frame_budget;
  const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware,
                                                sls::Addressing::kVirtual, pinned_buffers);
  return group.add_process(sls::SynthesisFlow(plat).synthesize(app),
                           "p" + std::to_string(group.size()));
}

/// Cold start: the workload writes its inputs, then every buffer page
/// leaves through the timed fault path.
inline void cold_start(sls::System& system, const workloads::Workload& wl) {
  wl.setup(system);
  evict_all_buffers(system);
}

/// Writes a figure's two artifacts: the engine report as BENCH_<stem>.json
/// and <stem>_summary.txt holding `headline`, then `table` printed under
/// `title` (when given), then `tail`.
inline void write_artifacts(const EngineBenchReport& engine, const std::string& stem,
                            const std::string& headline, const Table* table = nullptr,
                            const std::string& title = "", const std::string& tail = "") {
  engine.write_json("BENCH_" + stem + ".json");
  std::ofstream summary(stem + "_summary.txt");
  summary << headline;
  if (table != nullptr) table->print(summary, title);
  summary << tail;
}

/// Runs `shards` on `workers` host threads, re-runs them serially and
/// throws on the first divergence (cycles, events, or the merged stat
/// snapshot), then prints the one-line verdict naming `what`.
inline sls::ShardedReport run_sharded(const std::vector<sls::Shard>& shards, unsigned workers,
                                      const std::string& what) {
  const sls::ShardedRunner runner(workers);
  sls::ShardedReport report = runner.run(shards);
  runner.verify_against_serial(shards, report);
  std::cout << "[shards] " << what << " on " << workers
            << " host threads == serial (bit-identical)\n";
  return report;
}

/// The flags the fig benches share; each bench names the subset it takes.
enum CliFlag : unsigned {
  kSmoke = 1u << 0,   // --smoke: the CI-sized run
  kShards = 1u << 1,  // --shards N: host threads for the serial == sharded gate
  kTracing = 1u << 2, // --trace PATH, --telemetry PATH, --telemetry-period N
};

struct Cli {
  bool smoke = false;
  bool help = false;
  unsigned shards = 2;
  std::string trace;      // Perfetto JSON artifact of the --smoke run
  std::string telemetry;  // telemetry CSV artifact of the --smoke run
  u64 telemetry_period = 20'000;
};

/// A malformed invocation: run_main prints it with the usage line, exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

template <typename T>
T parse_positive(const std::string& flag, const std::string& text) {
  T v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v == 0)
    throw UsageError(flag + " expects a whole positive number, got '" + text + "'");
  return v;
}

inline Cli parse_cli(int argc, char** argv, unsigned flags) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&] {
      if (i + 1 >= argc) throw UsageError("missing value for " + arg);
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
      return cli;
    }
    if ((flags & kSmoke) && arg == "--smoke") cli.smoke = true;
    else if ((flags & kShards) && arg == "--shards")
      cli.shards = parse_positive<unsigned>(arg, value());
    else if ((flags & kTracing) && arg == "--trace") cli.trace = value();
    else if ((flags & kTracing) && arg == "--telemetry") cli.telemetry = value();
    else if ((flags & kTracing) && arg == "--telemetry-period")
      cli.telemetry_period = parse_positive<u64>(arg, value());
    else throw UsageError("unknown argument '" + arg + "'");
  }
  if (!cli.smoke && !(cli.trace.empty() && cli.telemetry.empty()))
    throw UsageError("--trace and --telemetry name --smoke artifacts; add --smoke");
  return cli;
}

/// A bench's whole main(): parses the `flags` it accepts, then runs `body`.
/// A malformed invocation exits 2 with the usage line, --help exits 0, and
/// any exception prints "<name> FAILED: <what>" and exits 1.
inline int run_main(int argc, char** argv, const std::string& name, unsigned flags,
                    const std::function<void(const Cli&)>& body) {
  const std::string prog = std::string(argv[0]).substr(std::string(argv[0]).rfind('/') + 1);
  const std::string usage =
      "usage: " + prog + (flags & kSmoke ? " [--smoke]" : "") +
      (flags & kShards ? " [--shards N]" : "") +
      (flags & kTracing ? " [--trace PATH] [--telemetry PATH] [--telemetry-period N]" : "");
  try {
    const Cli cli = parse_cli(argc, argv, flags);
    if (cli.help) {
      std::cout << usage << "\n";
      return 0;
    }
    body(cli);
    return 0;
  } catch (const UsageError& e) {
    std::cerr << name << ": " << e.what() << "\n" << usage << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << name << " FAILED: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace vmsls::bench
