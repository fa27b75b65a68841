// The elaborated system: a SystemImage instantiated on the simulator.
//
// Owns every component of the simulated SoC — physical memory, DRAM/bus
// models, the process address space and page tables, the shared walker,
// per-thread MMUs/ports/engines, the OS model with delegate threads and
// the fault handler, and (optionally) the DMA engine + offload driver.
// This is the "board" the paper's evaluation runs on.
//
// A System can alternatively be elaborated *into* a SharedSubstrate: the
// physical memory, frame allocator, DRAM + bus, OS service cores, and the
// memory-pressure FramePool come from outside and are shared with other
// Systems on the same simulator. That is the multi-process
// over-subscription configuration: each process keeps its own address
// space, page tables, walker, fault handler, and pager, while frames and
// bus bandwidth are contended machine-wide (see sls::ProcessGroup).
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
#include "mem/paging/frame_pool.hpp"
#include "mem/paging/pager.hpp"
#include "mem/paging/swap_scheduler.hpp"
#include "mem/physmem.hpp"
#include "mem/walker.hpp"
#include "rt/os.hpp"
#include "rt/process.hpp"
#include "sls/synthesis.hpp"

namespace vmsls::sls {

/// Machine-wide components several Systems share on one simulator. All
/// pointers must outlive every System elaborated against the substrate;
/// `pool` may be null (no shared memory-pressure arbitration) and `swap`
/// may be null (each pager keeps a private swap device instead of sharing
/// one flash part).
struct SharedSubstrate {
  mem::PhysicalMemory* pm = nullptr;
  mem::FrameAllocator* frames = nullptr;
  mem::DramModel* dram = nullptr;
  mem::MemoryBus* bus = nullptr;
  rt::OsModel* os = nullptr;
  paging::FramePool* pool = nullptr;
  paging::SwapScheduler* swap = nullptr;
  /// Machine-wide file registry + block cache for file-backed mappings.
  /// `files` may be null (processes then cannot mmap through the group) and
  /// `bcache` may be null (each pager keeps a private buffer cache).
  mem::FileStore* files = nullptr;
  paging::BufferCache* bcache = nullptr;
  /// Machine-wide resident-frame index for MAP_SHARED pages: when set, a
  /// process faulting a shared file page another process already holds
  /// resident maps the *same frame* (one frame backs N mappings) instead of
  /// filling a duplicate. Null = every process fills its own frame.
  mem::FrameShareIndex* share = nullptr;
};

class System {
 public:
  System(sim::Simulator& sim, const SystemImage& image);

  /// Shared-substrate elaboration: memory, bus, OS cores, and the frame
  /// pool come from outside; `instance` prefixes every component's stat
  /// names (e.g. "p0.") so multiple processes coexist in one registry.
  System(sim::Simulator& sim, const SystemImage& image, const SharedSubstrate& shared,
         std::string instance);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- component access ---
  sim::Simulator& simulator() noexcept { return sim_; }
  rt::Process& process() noexcept { return *process_; }
  mem::AddressSpace& address_space() noexcept { return *as_; }
  mem::MemoryBus& bus() noexcept { return *bus_; }
  mem::PageWalker& walker() noexcept { return *walker_; }
  mem::PhysicalMemory& physical_memory() noexcept { return *pm_; }
  rt::OsModel& os() noexcept { return *os_; }
  rt::FaultHandler& fault_handler() noexcept { return *faults_; }

  /// Present when the platform configures a frame budget (pager.frame_budget
  /// > 0) or the system shares a FramePool; nullptr otherwise.
  paging::Pager* pager() noexcept { return pager_.get(); }

  /// File registry backing mmap regions: the substrate's machine-wide store
  /// when elaborated into one, else a private store (block size = page size).
  mem::FileStore& files() noexcept { return *files_; }

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

  void build(const SharedSubstrate* shared);
  void build_hw_thread(const ThreadSpec& spec, const HwThreadPlan& plan);
  void build_sw_thread(const ThreadSpec& spec);
  rt::OsBindings make_bindings(const ThreadSpec& spec) const;

  sim::Simulator& sim_;
  SystemImage image_;
  std::string inst_;

  // Shared components: owned_* hold storage when this system stands alone;
  // the raw pointers are what the rest of the system uses either way.
  std::unique_ptr<mem::PhysicalMemory> owned_pm_;
  std::unique_ptr<mem::FrameAllocator> owned_frames_;
  std::unique_ptr<mem::DramModel> owned_dram_;
  std::unique_ptr<mem::MemoryBus> owned_bus_;
  std::unique_ptr<rt::OsModel> owned_os_;
  mem::PhysicalMemory* pm_ = nullptr;
  mem::FrameAllocator* frames_ = nullptr;
  mem::DramModel* dram_ = nullptr;
  mem::MemoryBus* bus_ = nullptr;
  rt::OsModel* os_ = nullptr;
  paging::FramePool* pool_ = nullptr;
  std::unique_ptr<mem::FileStore> owned_files_;
  mem::FileStore* files_ = nullptr;

  // Per-process components, always owned.
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
