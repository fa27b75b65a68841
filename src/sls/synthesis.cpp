#include "sls/synthesis.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace vmsls::sls {

namespace {
class PassTimer {
 public:
  PassTimer(std::string name, std::vector<PassTiming>& out)
      : name_(std::move(name)), out_(out), start_(std::chrono::steady_clock::now()) {}
  ~PassTimer() {
    const auto us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count() /
                    1000.0;
    out_.push_back(PassTiming{name_, us});
  }

 private:
  std::string name_;
  std::vector<PassTiming>& out_;
  std::chrono::steady_clock::time_point start_;
};

unsigned round_up_pow2(unsigned v) {
  unsigned p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

std::string SynthesisReport::to_string() const {
  std::ostringstream os;
  os << "synthesis report: " << hw_threads << " HW + " << sw_threads << " SW threads, "
     << netlist_instances << " netlist instances\n";
  for (const auto& [name, res] : components) os << "  " << name << ": " << res.to_string() << "\n";
  os << "  static: " << static_resources.to_string() << "\n";
  os << "  total:  " << total.to_string() << "  (utilization "
     << static_cast<int>(utilization * 100.0) << "%, " << (fits_budget ? "fits" : "OVERFLOWS")
     << ")\n";
  return os.str();
}

const HwThreadPlan& SystemImage::hw_plan(const std::string& thread) const {
  for (const auto& p : hw_plans_)
    if (p.thread == thread) return p;
  throw std::out_of_range("no hardware thread plan for '" + thread + "'");
}

SynthesisFlow::SynthesisFlow(PlatformSpec platform, SynthesisOptions options)
    : platform_(std::move(platform)), options_(options) {}

SystemImage SynthesisFlow::synthesize(const AppSpec& app) {
  SystemImage image;
  image.app_ = app;
  image.platform_ = platform_;
  image.options_ = options_;

  {
    PassTimer t("validate", image.report_.pass_timings);
    pass_validate(app);
  }
  {
    PassTimer t("partition", image.report_.pass_timings);
    pass_partition(app, image);
  }
  {
    PassTimer t("interface-synthesis", image.report_.pass_timings);
    pass_interface_synthesis(app, image);
  }
  {
    PassTimer t("estimate", image.report_.pass_timings);
    pass_estimate(app, image);
  }
  {
    PassTimer t("address-map", image.report_.pass_timings);
    pass_address_map(image);
  }
  {
    PassTimer t("emit", image.report_.pass_timings);
    pass_emit(app, image);
  }

  if (options_.strict_budget && !image.report_.fits_budget)
    throw std::runtime_error("design for app '" + app.name + "' exceeds " + platform_.name +
                             " budget: " + image.report_.total.to_string());
  log_info("sls", "synthesized '", app.name, "' for ", platform_.name, ": ",
           image.report_.hw_threads, " HW + ", image.report_.sw_threads, " SW threads, ",
           image.report_.total.to_string());
  return image;
}

void SynthesisFlow::pass_validate(const AppSpec& app) const {
  require(!app.name.empty(), "application needs a name");
  require(!app.threads.empty(), "application has no threads");

  std::set<std::string> names;
  for (const auto& t : app.threads) {
    require(!t.name.empty(), "thread needs a name");
    require(names.insert(t.name).second, "duplicate thread name '" + t.name + "'");
    hwt::verify(t.kernel);
    // Every kernel-local object index must be bound to an app object.
    require(t.mailbox_bindings.size() >= t.kernel.iface.mailboxes,
            "thread '" + t.name + "' leaves kernel mailboxes unbound");
    require(t.semaphore_bindings.size() >= t.kernel.iface.semaphores,
            "thread '" + t.name + "' leaves kernel semaphores unbound");
    for (const auto& b : t.mailbox_bindings) app.mailbox_index(b);     // throws if unknown
    for (const auto& b : t.semaphore_bindings) app.semaphore_index(b);  // throws if unknown
    if (t.kind == ThreadKind::kSoftware)
      require(t.addressing == Addressing::kVirtual,
              "software thread '" + t.name + "' cannot use physical addressing");
  }

  std::set<std::string> objs;
  for (const auto& m : app.mailboxes)
    require(objs.insert("m:" + m.name).second, "duplicate mailbox '" + m.name + "'");
  for (const auto& s : app.semaphores)
    require(objs.insert("s:" + s.name).second, "duplicate semaphore '" + s.name + "'");
  for (const auto& b : app.buffers) {
    require(b.bytes > 0, "buffer '" + b.name + "' has zero size");
    require(objs.insert("b:" + b.name).second, "duplicate buffer '" + b.name + "'");
  }

  // In auto mode, excess hardware candidates are demoted by the partition
  // pass instead of being an error.
  if (options_.partition == PartitionMode::kUser)
    require(app.hw_thread_count() <= platform_.max_hw_threads,
            "app '" + app.name + "' needs " + std::to_string(app.hw_thread_count()) +
                " fabric slots but " + platform_.name + " provides " +
                std::to_string(platform_.max_hw_threads));
}

double estimate_partition_gain(const hwt::Kernel& kernel, const PlatformSpec& platform) {
  // Static profile estimation in the Ball-Larus tradition: every backward
  // branch defines a loop interval [target, branch]; instructions weigh
  // 16^depth where depth is the number of enclosing intervals. This makes
  // inner-loop compute dominate outer-loop memory staging exactly as it
  // does dynamically, without trip counts. Weighted op costs then go
  // through both machines' cost models; memory ops get average service
  // latencies (bursts amortize across their tile on both sides). The
  // *ratio* ranks candidates; neither sum predicts absolute runtime.
  constexpr double kLoopWeight = 16.0;
  constexpr double kHwBeatLatency = 26.0;   // single-beat translated access
  constexpr double kSwBeatLatency = 4.0;    // mostly L1, in ref cycles
  constexpr double kHwBurstLatency = 45.0;  // one tile burst on the fabric
  constexpr double kSwBurstLatency = 40.0;  // same tile through the caches

  // Loop intervals from back edges.
  struct Interval {
    u64 lo, hi;
  };
  std::vector<Interval> loops;
  for (u64 pc = 0; pc < kernel.code.size(); ++pc) {
    const hwt::Instr& in = kernel.code[pc];
    const bool branch =
        in.op == hwt::Op::kBeqz || in.op == hwt::Op::kBnez || in.op == hwt::Op::kJmp;
    if (branch && static_cast<u64>(in.imm) < pc) loops.push_back({static_cast<u64>(in.imm), pc});
  }
  auto weight_at = [&loops](u64 pc) {
    double w = 1.0;
    for (const auto& l : loops)
      if (pc >= l.lo && pc <= l.hi) w *= kLoopWeight;
    return w;
  };

  const auto& hw = platform.hw_cost;
  const auto cpu = platform.cpu.cost;
  const double cpu_speed = platform.cpu.clock.ratio();
  const double ilp = static_cast<double>(hw.ilp == 0 ? 1 : hw.ilp);

  double hw_cycles = 0, sw_cycles = 0;
  for (u64 pc = 0; pc < kernel.code.size(); ++pc) {
    const hwt::Instr& in = kernel.code[pc];
    const double w = weight_at(pc);
    const auto o = in.op;
    if (o == hwt::Op::kBurstLoad || o == hwt::Op::kBurstStore) {
      hw_cycles += w * kHwBurstLatency;
      sw_cycles += w * kSwBurstLatency;
      continue;
    }
    if (hwt::is_mem(o)) {
      hw_cycles += w * kHwBeatLatency;
      sw_cycles += w * kSwBeatLatency;
      continue;
    }
    if (hwt::is_os(o) || o == hwt::Op::kHalt) continue;  // identical blocking
    double hw_c = static_cast<double>(hw.alu), sw_c = static_cast<double>(cpu.alu);
    if (o == hwt::Op::kMul || o == hwt::Op::kMuli) {
      hw_c = static_cast<double>(hw.mul);
      sw_c = static_cast<double>(cpu.mul);
    } else if (o == hwt::Op::kDivU || o == hwt::Op::kRemU) {
      hw_c = static_cast<double>(hw.divu);
      sw_c = static_cast<double>(cpu.divu);
    } else if (o == hwt::Op::kBeqz || o == hwt::Op::kBnez || o == hwt::Op::kJmp) {
      hw_c = static_cast<double>(hw.branch);
      sw_c = static_cast<double>(cpu.branch);
    } else if (o == hwt::Op::kSpadLoad || o == hwt::Op::kSpadStore) {
      hw_c = static_cast<double>(hw.spad);
      sw_c = static_cast<double>(cpu.spad);
    }
    hw_cycles += w * hw_c / ilp;
    sw_cycles += w * sw_c / cpu_speed;
  }
  return hw_cycles > 0 ? sw_cycles / hw_cycles : 1.0;
}

void SynthesisFlow::pass_partition(const AppSpec& app, SystemImage& image) const {
  // kUser honors the spec's HW/SW marking (the DATE-era default, where
  // partitioning is a design input). kAuto treats HW-marked threads as
  // candidates and selects the best-gain-density subset that fits.
  std::vector<const ThreadSpec*> to_hw;
  std::vector<const ThreadSpec*> to_sw;
  for (const auto& t : app.threads)
    (t.kind == ThreadKind::kHardware ? to_hw : to_sw).push_back(&t);

  if (options_.partition == PartitionMode::kAuto) {
    struct Candidate {
      const ThreadSpec* t;
      double gain;
      Resources res;
    };
    std::vector<Candidate> cands;
    for (const ThreadSpec* t : to_hw) {
      Candidate c;
      c.t = t;
      c.gain = estimate_partition_gain(t->kernel, platform_);
      c.res = estimate_kernel(t->kernel) + estimate_mmu_frontend() +
              estimate_tlb(platform_.default_tlb) +
              estimate_mem_port(platform_.default_port)
                  .scaled(std::max(1u, t->kernel.iface.mem_ports)) +
              estimate_os_interface(t->kernel.iface.mailboxes, t->kernel.iface.semaphores);
      cands.push_back(c);
    }
    // Gain density: predicted speedup per LUT; deterministic tie-break.
    std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
      const double da = a.gain / static_cast<double>(a.res.luts);
      const double db = b.gain / static_cast<double>(b.res.luts);
      if (da != db) return da > db;
      return a.t->name < b.t->name;
    });

    Resources committed = estimate_walker(platform_.walker) + estimate_interconnect(2);
    to_hw.clear();
    for (const Candidate& c : cands) {
      const bool has_slot = to_hw.size() < platform_.max_hw_threads;
      const bool worthwhile = c.gain > 1.0;
      Resources with = committed + c.res;
      if (has_slot && worthwhile && fits(with, platform_.budget)) {
        committed = with;
        to_hw.push_back(c.t);
      } else {
        to_sw.push_back(c.t);
        image.report_.demoted_threads.push_back(c.t->name);
      }
    }
    // Keep deterministic declaration order for slot assignment.
    auto by_decl = [&app](const ThreadSpec* a, const ThreadSpec* b) {
      auto pos = [&app](const ThreadSpec* t) {
        for (std::size_t i = 0; i < app.threads.size(); ++i)
          if (&app.threads[i] == t) return i;
        return app.threads.size();
      };
      return pos(a) < pos(b);
    };
    std::sort(to_hw.begin(), to_hw.end(), by_decl);
    std::sort(to_sw.begin(), to_sw.end(), by_decl);
  }

  unsigned slot = 0;
  for (const ThreadSpec* t : to_hw) {
    HwThreadPlan plan;
    plan.thread = t->name;
    plan.slot = slot++;
    plan.addressing = t->addressing;
    image.hw_plans_.push_back(std::move(plan));
  }
  for (const ThreadSpec* t : to_sw) image.sw_plans_.push_back(SwThreadPlan{t->name});

  image.report_.hw_threads = static_cast<unsigned>(image.hw_plans_.size());
  image.report_.sw_threads = static_cast<unsigned>(image.sw_plans_.size());
}

void SynthesisFlow::pass_interface_synthesis(const AppSpec& app, SystemImage& image) const {
  const u64 page = 1ull << platform_.page_table.page_bits;
  for (auto& plan : image.hw_plans_) {
    const ThreadSpec& t = app.thread(plan.thread);
    plan.port = t.port_override.value_or(platform_.default_port);
    if (t.tlb_override) {
      plan.tlb = *t.tlb_override;
    } else if (options_.auto_tlb && t.footprint_hint_bytes > 0 &&
               plan.addressing == Addressing::kVirtual) {
      // Size the TLB to cover the hinted working set, clamped to what the
      // fabric affords.
      const u64 pages = ceil_div(t.footprint_hint_bytes, page);
      unsigned entries = round_up_pow2(static_cast<unsigned>(std::min<u64>(pages, 1u << 20)));
      entries = std::clamp(entries, options_.auto_tlb_min, options_.auto_tlb_max);
      plan.tlb = platform_.default_tlb.with_entries(entries);
    } else {
      plan.tlb = platform_.default_tlb;
    }
  }
}

void SynthesisFlow::pass_estimate(const AppSpec& app, SystemImage& image) const {
  Resources total;
  unsigned bus_masters = 1;  // CPU cache port is always a master

  for (auto& plan : image.hw_plans_) {
    const ThreadSpec& t = app.thread(plan.thread);
    Resources r = estimate_kernel(t.kernel);
    r += estimate_os_interface(t.kernel.iface.mailboxes, t.kernel.iface.semaphores);
    const unsigned ports = std::max(1u, t.kernel.iface.mem_ports);
    r += estimate_mem_port(plan.port).scaled(ports);
    if (plan.addressing == Addressing::kVirtual) {
      r += estimate_mmu_frontend();
      r += estimate_tlb(plan.tlb);
    }
    plan.resources = r;
    image.report_.components.emplace_back("hwt:" + plan.thread, r);
    total += r;
    bus_masters += ports;
  }

  Resources statics = estimate_interconnect(bus_masters + 1 /*walker*/);
  const bool any_virtual =
      std::any_of(image.hw_plans_.begin(), image.hw_plans_.end(),
                  [](const HwThreadPlan& p) { return p.addressing == Addressing::kVirtual; });
  if (any_virtual) statics += estimate_walker(platform_.walker);
  if (options_.include_dma) statics += estimate_dma_engine();
  image.report_.static_resources = statics;
  total += statics;

  image.report_.total = total;
  image.report_.utilization = utilization(total, platform_.budget);
  image.report_.fits_budget = fits(total, platform_.budget);
}

void SynthesisFlow::pass_address_map(SystemImage& image) const {
  Addr base = platform_.ctrl_base;
  for (auto& plan : image.hw_plans_) {
    plan.ctrl_base = base;
    image.report_.address_map.push_back(
        AddressMapEntry{"hwt:" + plan.thread, base, platform_.ctrl_stride});
    base += platform_.ctrl_stride;
  }
  image.report_.address_map.push_back(AddressMapEntry{"walker", base, platform_.ctrl_stride});
  base += platform_.ctrl_stride;
  if (image.options_.include_dma) {
    image.report_.address_map.push_back(AddressMapEntry{"dma", base, platform_.ctrl_stride});
    base += platform_.ctrl_stride;
  }
}

void SynthesisFlow::pass_emit(const AppSpec& app, SystemImage& image) const {
  auto netlist = std::make_shared<Netlist>(app.name + "_top");

  netlist->add_net("axi_mem");
  netlist->add_net("irq_to_host");
  netlist->add_net("ptw_req");

  auto& bus = netlist->add_instance("interconnect0", "axi_interconnect");
  bus.connections.push_back({"m_axi", "axi_mem"});

  const bool any_virtual =
      std::any_of(image.hw_plans_.begin(), image.hw_plans_.end(),
                  [](const HwThreadPlan& p) { return p.addressing == Addressing::kVirtual; });
  if (any_virtual) {
    auto& walker = netlist->add_instance("ptw0", "page_table_walker");
    walker.connections.push_back({"m_axi", "axi_mem"});
    walker.connections.push_back({"walk_req", "ptw_req"});
    walker.parameters.emplace_back("WALK_CACHE",
                                   platform_.walker.walk_cache_entries > 0 ? "1" : "0");
  }

  for (const auto& plan : image.hw_plans_) {
    const ThreadSpec& t = app.thread(plan.thread);
    const std::string base = "hwt_" + plan.thread;
    netlist->add_net(base + "_mem");
    netlist->add_net(base + "_osif");

    auto& wrapper = netlist->add_instance(base, "hw_thread_wrapper");
    wrapper.parameters.emplace_back("KERNEL", t.kernel.name);
    wrapper.parameters.emplace_back("SPAD_BYTES", std::to_string(t.kernel.iface.spad_bytes));
    wrapper.parameters.emplace_back("SLOT", std::to_string(plan.slot));
    wrapper.connections.push_back({"mem", base + "_mem"});
    wrapper.connections.push_back({"osif", base + "_osif"});

    if (plan.addressing == Addressing::kVirtual) {
      auto& mmu = netlist->add_instance(base + "_mmu", "mmu_frontend");
      mmu.parameters.emplace_back("TLB_ENTRIES", std::to_string(plan.tlb.entries));
      mmu.parameters.emplace_back("TLB_WAYS", std::to_string(plan.tlb.ways));
      mmu.connections.push_back({"s_port", base + "_mem"});
      mmu.connections.push_back({"walk_req", "ptw_req"});
      mmu.connections.push_back({"m_axi", "axi_mem"});
      mmu.connections.push_back({"fault_irq", "irq_to_host"});
    } else {
      auto& bridge = netlist->add_instance(base + "_physport", "axi_master_port");
      bridge.connections.push_back({"s_port", base + "_mem"});
      bridge.connections.push_back({"m_axi", "axi_mem"});
    }

    auto& osif = netlist->add_instance(base + "_osif_inst", "os_interface");
    osif.connections.push_back({"s_osif", base + "_osif"});
    osif.connections.push_back({"irq", "irq_to_host"});
  }

  if (image.options_.include_dma) {
    auto& dmae = netlist->add_instance("dma0", "dma_engine");
    dmae.connections.push_back({"m_axi", "axi_mem"});
  }

  image.report_.netlist_instances = netlist->instance_count();
  image.report_.netlist_nets = netlist->net_count();
  image.netlist_ = std::move(netlist);
}

}  // namespace vmsls::sls
