// System-level synthesis flow — the paper's primary contribution.
//
// Consumes an AppSpec and a PlatformSpec and produces a SystemImage: the
// complete generated system (per-thread wrapper plans with their TLB and
// port configurations, shared MMU/walker, interconnect, address map,
// resource report, structural netlist) plus the runtime configuration. The
// image elaborates onto the discrete-event SoC simulator, which plays the
// role of the bitstream + board.
//
// Passes, in order:
//   1. validate            — names, bindings, slot budget, kernel checks
//   2. partition           — honor user HW/SW marking, assign fabric slots
//   3. interface-synthesis — per-thread TLB/port configs (auto-sized TLB:
//                            enough entries to cover the kernel's declared
//                            footprint, clamped to platform limits)
//   4. estimate            — resource roll-up vs the part budget
//   5. address-map         — control-register window per slot
//   6. emit                — structural netlist + Verilog stub
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sls/app.hpp"
#include "sls/netlist.hpp"
#include "sls/platform.hpp"
#include "sls/resources.hpp"

namespace vmsls::sls {

class System;

struct HwThreadPlan {
  std::string thread;
  unsigned slot = 0;
  Addressing addressing = Addressing::kVirtual;
  mem::TlbConfig tlb{};
  hwt::HwPortConfig port{};
  Resources resources{};  // wrapper total: datapath + MMU + TLB + ports + OS IF
  Addr ctrl_base = 0;
};

struct SwThreadPlan {
  std::string thread;
};

struct AddressMapEntry {
  std::string component;
  Addr base = 0;
  u64 size = 0;
};

struct PassTiming {
  std::string pass;
  double microseconds = 0.0;  // host wall-clock, the toolflow-statistics metric
};

struct SynthesisReport {
  std::vector<PassTiming> pass_timings;
  std::vector<std::pair<std::string, Resources>> components;  // named breakdown
  Resources static_resources{};  // walker + interconnect (+ DMA)
  Resources total{};
  double utilization = 0.0;  // of the binding resource class
  bool fits_budget = false;
  unsigned hw_threads = 0;
  unsigned sw_threads = 0;
  std::vector<AddressMapEntry> address_map;
  u64 netlist_instances = 0;
  u64 netlist_nets = 0;
  /// Threads the auto-partitioner demoted to software (kAuto only).
  std::vector<std::string> demoted_threads;

  std::string to_string() const;
};

/// How the flow decides which threads become hardware.
enum class PartitionMode {
  kUser,  // honor the spec's HW/SW marking exactly
  kAuto,  // HW-marked threads are *candidates*; the flow selects the subset
          // with the best analytic gain density that fits the part, and
          // demotes the rest to software
};

struct SynthesisOptions {
  bool include_dma = false;     // instantiate the DMA engine + offload driver
  bool strict_budget = true;    // throw when the design exceeds the part
  bool auto_tlb = true;         // pick TLB sizes (else platform default)
  unsigned auto_tlb_min = 8;
  unsigned auto_tlb_max = 64;
  PartitionMode partition = PartitionMode::kUser;
};

/// Analytic hardware-vs-software gain used by automatic partitioning:
/// static op mix weighted by the two cost models plus average memory
/// latencies (a trip-count-free proxy; see synthesis.cpp).
double estimate_partition_gain(const hwt::Kernel& kernel, const PlatformSpec& platform);

/// The synthesized design. Immutable; elaborate() may be called repeatedly
/// to build independent simulation instances.
class SystemImage {
 public:
  const AppSpec& app() const noexcept { return app_; }
  const PlatformSpec& platform() const noexcept { return platform_; }
  const SynthesisOptions& options() const noexcept { return options_; }
  const SynthesisReport& report() const noexcept { return report_; }
  const Netlist& netlist() const noexcept { return *netlist_; }
  const std::vector<HwThreadPlan>& hw_plans() const noexcept { return hw_plans_; }
  const std::vector<SwThreadPlan>& sw_plans() const noexcept { return sw_plans_; }

  const HwThreadPlan& hw_plan(const std::string& thread) const;

  /// Instantiates the full system (memory, MMUs, engines, runtime) on the
  /// given simulator: a standalone System on a Machine of its own.
  std::unique_ptr<System> elaborate(sim::Simulator& sim) const;

 private:
  friend class SynthesisFlow;
  friend class ProcessGroup;  // builds the thread-less pager-only image
  AppSpec app_;
  PlatformSpec platform_;
  SynthesisOptions options_;
  SynthesisReport report_;
  std::shared_ptr<Netlist> netlist_;  // shared: images are copyable for DSE
  std::vector<HwThreadPlan> hw_plans_;
  std::vector<SwThreadPlan> sw_plans_;
};

class SynthesisFlow {
 public:
  explicit SynthesisFlow(PlatformSpec platform, SynthesisOptions options = {});

  /// Runs all passes. Throws std::invalid_argument on spec errors and
  /// std::runtime_error when the design does not fit (strict mode).
  SystemImage synthesize(const AppSpec& app);

 private:
  void pass_validate(const AppSpec& app) const;
  void pass_partition(const AppSpec& app, SystemImage& image) const;
  void pass_interface_synthesis(const AppSpec& app, SystemImage& image) const;
  void pass_estimate(const AppSpec& app, SystemImage& image) const;
  void pass_address_map(SystemImage& image) const;
  void pass_emit(const AppSpec& app, SystemImage& image) const;

  PlatformSpec platform_;
  SynthesisOptions options_;
};

}  // namespace vmsls::sls
