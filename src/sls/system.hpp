// The elaborated system: a SystemImage instantiated as one process on an
// sls::Machine.
//
// The Machine holds the board's machine-wide parts — physical memory,
// DRAM/bus models, the OS service cores, the file tier, and the optional
// frame pool and swap devices. The System owns what is per process: the
// address space and page tables, the shared walker, per-thread
// MMUs/ports/engines, delegate OS ports, the fault handler, the pager, and
// (optionally) the DMA engine + offload driver.
//
// A standalone System is the only process on a pool-less Machine of its
// own; a ProcessGroup elaborates N Systems onto one Machine, so frames, bus
// bandwidth and OS cores are contended machine-wide. Both run one build.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cached_port.hpp"
#include "dma/offload.hpp"
#include "hwt/engine.hpp"
#include "hwt/hw_port.hpp"
#include "mem/address_space.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/mmu.hpp"
#include "mem/paging/pager.hpp"
#include "mem/walker.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "sls/machine.hpp"
#include "sls/synthesis.hpp"

namespace vmsls::sls {

class System {
 public:
  /// A standalone system: the only process on a pool-less Machine of its
  /// own, built from the image's platform.
  System(sim::Simulator& sim, const SystemImage& image);

  /// Process `instance` on `machine`; `instance` prefixes every component's
  /// stat names (e.g. "p0.") so several processes coexist in one registry.
  System(Machine& machine, const SystemImage& image, std::string instance);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- component access ---
  sim::Simulator& simulator() noexcept { return sim_; }
  rt::Process& process() noexcept { return *process_; }
  mem::AddressSpace& address_space() noexcept { return *as_; }
  mem::MemoryBus& bus() noexcept { return machine_.bus(); }
  mem::PageWalker& walker() noexcept { return *walker_; }
  mem::PhysicalMemory& physical_memory() noexcept { return machine_.memory(); }
  rt::OsModel& os() noexcept { return machine_.os(); }
  rt::FaultHandler& fault_handler() noexcept { return *faults_; }

  /// Present when the platform configures a frame budget (pager.frame_budget
  /// > 0) or the machine has a FramePool; nullptr otherwise.
  paging::Pager* pager() noexcept { return pager_.get(); }

  /// The machine's file registry backing mmap regions (block size = page
  /// size).
  mem::FileStore& files() noexcept { return machine_.files(); }

  /// Stat-name prefix of this instance ("" for a standalone system).
  const std::string& instance() const noexcept { return inst_; }

  hwt::Engine& engine(const std::string& thread);
  mem::Mmu& mmu(const std::string& thread);  // hardware threads only
  mem::CacheHierarchy& caches(const std::string& thread);  // software threads only

  /// DMA baseline components (present when synthesized with include_dma).
  dma::DmaEngine& dma_engine();
  dma::OffloadDriver& offload();

  /// Virtual address of a named application buffer.
  VirtAddr buffer(const std::string& name) const;

  // --- execution control ---
  void start_thread(const std::string& thread);
  void start_all();

  /// True once every started thread halted; a system with no threads (a
  /// ProcessGroup's pager-only member) is always halted.
  bool all_halted() const noexcept {
    return running_ == 0 && (started_ > 0 || (hw_.empty() && sw_.empty()));
  }
  unsigned threads_running() const noexcept { return running_; }

  /// Names of threads currently running (deadlock diagnostics).
  std::string running_thread_names() const;

  /// Runs the simulation until every started thread halts. Throws on
  /// deadlock (event queue drained with threads blocked) or when `max`
  /// cycles elapse. Returns cycles elapsed since the call. Standalone
  /// systems only — a ProcessGroup steps all member systems together.
  Cycles run_to_completion(Cycles max_cycles = 2'000'000'000ull);

  const SystemImage& image() const noexcept { return image_; }

 private:
  struct HwThread {
    std::unique_ptr<mem::Mmu> mmu;
    std::vector<std::unique_ptr<hwt::HwMemPort>> ports;
    std::unique_ptr<rt::DelegateOsPort> os_port;
    std::unique_ptr<hwt::Engine> engine;
  };
  struct SwThread {
    std::unique_ptr<mem::CacheHierarchy> caches;
    std::unique_ptr<cpu::CachedMemPort> port;
    std::unique_ptr<rt::DirectOsPort> os_port;
    std::unique_ptr<hwt::Engine> engine;
  };

  void build();
  void build_hw_thread(const ThreadSpec& spec, const HwThreadPlan& plan);
  void build_sw_thread(const ThreadSpec& spec);
  rt::OsBindings make_bindings(const ThreadSpec& spec) const;

  std::unique_ptr<Machine> standalone_machine_;  // set by the standalone constructor only
  Machine& machine_;
  sim::Simulator& sim_;
  SystemImage image_;
  std::string inst_;

  // Per-process components.
  std::unique_ptr<mem::AddressSpace> as_;
  std::unique_ptr<rt::Process> process_;
  std::unique_ptr<mem::PageWalker> walker_;
  std::unique_ptr<rt::FaultHandler> faults_;
  std::unique_ptr<paging::Pager> pager_;
  std::unique_ptr<dma::DmaEngine> dma_;
  std::unique_ptr<dma::OffloadDriver> offload_;

  std::map<std::string, HwThread> hw_;
  std::map<std::string, SwThread> sw_;
  std::map<std::string, VirtAddr> buffers_;

  unsigned running_ = 0;
  unsigned started_ = 0;
};

}  // namespace vmsls::sls
