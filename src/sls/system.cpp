#include "sls/system.hpp"

#include <stdexcept>
#include <utility>

namespace vmsls::sls {

std::unique_ptr<System> SystemImage::elaborate(sim::Simulator& sim) const {
  return std::make_unique<System>(sim, *this);
}

std::unique_ptr<System> SystemImage::elaborate(sim::Simulator& sim, const SharedSubstrate& shared,
                                               std::string instance) const {
  return std::make_unique<System>(sim, *this, shared, std::move(instance));
}

System::System(sim::Simulator& sim, const SystemImage& image) : sim_(sim), image_(image) {
  build(nullptr);
}

System::System(sim::Simulator& sim, const SystemImage& image, const SharedSubstrate& shared,
               std::string instance)
    : sim_(sim), image_(image), inst_(std::move(instance)) {
  require(shared.pm && shared.frames && shared.dram && shared.bus && shared.os,
          "shared substrate must supply pm, frames, dram, bus, and os");
  if (!inst_.empty() && inst_.back() != '.') inst_ += '.';
  build(&shared);
}

void System::build(const SharedSubstrate* shared) {
  const PlatformSpec& plat = image_.platform();
  const AppSpec& app = image_.app();

  // --- memory system: owned when standalone, borrowed when shared ---
  const u64 page = 1ull << plat.page_table.page_bits;
  if (shared != nullptr) {
    pm_ = shared->pm;
    frames_ = shared->frames;
    dram_ = shared->dram;
    bus_ = shared->bus;
    os_ = shared->os;
    pool_ = shared->pool;
    require(frames_->frame_bytes() == page,
            "shared frame allocator page size does not match the platform page size");
  } else {
    owned_pm_ = std::make_unique<mem::PhysicalMemory>(plat.dram.size_bytes);
    owned_frames_ =
        std::make_unique<mem::FrameAllocator>(0, plat.dram.size_bytes / page, page);
    owned_dram_ = std::make_unique<mem::DramModel>(plat.dram, sim_.stats(), "dram");
    owned_bus_ = std::make_unique<mem::MemoryBus>(sim_, *owned_dram_, plat.bus, "bus");
    pm_ = owned_pm_.get();
    frames_ = owned_frames_.get();
    dram_ = owned_dram_.get();
    bus_ = owned_bus_.get();
  }
  if (shared != nullptr && shared->files != nullptr) {
    files_ = shared->files;
    require(files_->block_bytes() == page,
            "shared file store block size does not match the platform page size");
  } else {
    owned_files_ = std::make_unique<mem::FileStore>(page);
    files_ = owned_files_.get();
  }
  as_ = std::make_unique<mem::AddressSpace>(*pm_, *frames_, plat.page_table);
  if (shared != nullptr && shared->share != nullptr) as_->set_share_index(shared->share);
  process_ = std::make_unique<rt::Process>(sim_, *as_, inst_ + app.name);
  walker_ = std::make_unique<mem::PageWalker>(sim_, *bus_, *pm_, as_->page_table(), plat.walker,
                                              inst_ + "walker");
  process_->register_walker(walker_.get());

  // --- OS model ---
  if (shared == nullptr) {
    owned_os_ = std::make_unique<rt::OsModel>(sim_, plat.os, "os");
    os_ = owned_os_.get();
  }
  faults_ = std::make_unique<rt::FaultHandler>(sim_, *os_, *process_, inst_ + "faults");

  // --- pager daemon (memory-pressure model) ---
  if (plat.pager.frame_budget > 0 || pool_ != nullptr) {
    // A substrate-supplied SwapScheduler shares one flash part across all
    // member pagers; otherwise the pager owns a private one.
    paging::SwapScheduler* shared_swap = shared != nullptr ? shared->swap : nullptr;
    paging::BufferCache* shared_bcache = shared != nullptr ? shared->bcache : nullptr;
    pager_ = std::make_unique<paging::Pager>(sim_, *process_, plat.pager, inst_ + "pager",
                                             shared_swap, shared_bcache);
    pager_->set_os(os_, plat.os.daemon_service);
    pager_->set_bus(bus_);  // COW page copies charge as bus write bursts
    if (pool_ != nullptr) pool_->attach(*pager_);
    faults_->set_pager(pager_.get());
  }

  // --- application objects ---
  for (const auto& m : app.mailboxes) process_->add_mailbox(m.depth, inst_ + m.name);
  for (const auto& s : app.semaphores) process_->add_semaphore(s.initial, inst_ + s.name);
  for (const auto& b : app.buffers) {
    const VirtAddr va = as_->alloc(b.bytes, page);
    buffers_[b.name] = va;
    if (b.pinned) as_->populate(va, b.bytes);
  }

  // --- baseline DMA components ---
  if (image_.options().include_dma) {
    dma_ = std::make_unique<dma::DmaEngine>(sim_, *bus_, *pm_, plat.dma, inst_ + "dma");
    // Under memory pressure the driver fault-pins its transfers through the
    // pager with budget-aware chunked admission — the wiring that lets the
    // SVM-vs-DMA comparison run in the paging regime.
    offload_ = std::make_unique<dma::OffloadDriver>(sim_, *os_, *process_, *dma_, *bus_, *pm_,
                                                    plat.offload, inst_ + "offload",
                                                    pager_.get());
  }

  // --- threads ---
  // Follow the synthesis plans, not the spec's kind marks: the auto
  // partitioner may have demoted hardware candidates to software.
  for (const auto& plan : image_.hw_plans()) build_hw_thread(app.thread(plan.thread), plan);
  for (const auto& plan : image_.sw_plans()) build_sw_thread(app.thread(plan.thread));
}

rt::OsBindings System::make_bindings(const ThreadSpec& spec) const {
  rt::OsBindings b;
  for (const auto& name : spec.mailbox_bindings)
    b.mailboxes.push_back(image_.app().mailbox_index(name));
  for (const auto& name : spec.semaphore_bindings)
    b.semaphores.push_back(image_.app().semaphore_index(name));
  return b;
}

void System::build_hw_thread(const ThreadSpec& spec, const HwThreadPlan& plan) {
  const PlatformSpec& plat = image_.platform();
  HwThread t;

  mem::MmuConfig mmu_cfg;
  mmu_cfg.tlb = plan.tlb;
  mmu_cfg.translation_enabled = (plan.addressing == Addressing::kVirtual);
  mmu_cfg.prefetch_next_page = spec.prefetch_next_page;
  mmu_cfg.ad_tracking = (pager_ != nullptr);  // no consumer, no hit-path PT work
  t.mmu = std::make_unique<mem::Mmu>(sim_, *walker_, mmu_cfg,
                                     inst_ + "hwt." + spec.name + ".mmu", plan.slot);
  t.mmu->set_fault_sink(faults_.get());
  process_->register_mmu(t.mmu.get());

  const unsigned ports = std::max(1u, spec.kernel.iface.mem_ports);
  for (unsigned p = 0; p < ports; ++p) {
    t.ports.push_back(std::make_unique<hwt::HwMemPort>(
        sim_, *t.mmu, *bus_, *pm_, plan.port,
        inst_ + "hwt." + spec.name + ".port" + std::to_string(p)));
    // Under memory pressure, in-flight port accesses pin their pages so
    // victim selection (including another process's, via the pool) never
    // retargets a frame mid-transaction. Physically-addressed ports issue
    // frame numbers, not vpns — pinning those would block the wrong pages.
    if (pager_ != nullptr && plan.addressing == Addressing::kVirtual)
      t.ports.back()->set_address_space(as_.get());
  }

  t.os_port = std::make_unique<rt::DelegateOsPort>(sim_, *os_, *process_,
                                                   inst_ + "hwt." + spec.name + ".osif");
  t.os_port->set_bindings(make_bindings(spec));

  hwt::EngineConfig ecfg;
  ecfg.cost = plat.hw_cost;
  t.engine = std::make_unique<hwt::Engine>(sim_, spec.kernel, ecfg, inst_ + "hwt." + spec.name);
  for (unsigned p = 0; p < ports; ++p) t.engine->attach_mem_port(p, t.ports[p].get());
  t.engine->attach_os_port(t.os_port.get());

  hw_.emplace(spec.name, std::move(t));
}

void System::build_sw_thread(const ThreadSpec& spec) {
  const PlatformSpec& plat = image_.platform();
  SwThread t;

  t.caches = std::make_unique<mem::CacheHierarchy>(sim_, *bus_, plat.cpu.caches,
                                                   inst_ + "swt." + spec.name + ".cache");
  t.port = std::make_unique<cpu::CachedMemPort>(sim_, *as_, *t.caches,
                                                inst_ + "swt." + spec.name + ".port");
  t.os_port = std::make_unique<rt::DirectOsPort>(sim_, plat.os, *process_,
                                                 inst_ + "swt." + spec.name + ".osif");
  t.os_port->set_bindings(make_bindings(spec));

  t.engine = std::make_unique<hwt::Engine>(sim_, spec.kernel, cpu::engine_config(plat.cpu),
                                           inst_ + "swt." + spec.name);
  const unsigned ports = std::max(1u, spec.kernel.iface.mem_ports);
  for (unsigned p = 0; p < ports; ++p) t.engine->attach_mem_port(p, t.port.get());
  t.engine->attach_os_port(t.os_port.get());

  sw_.emplace(spec.name, std::move(t));
}

hwt::Engine& System::engine(const std::string& thread) {
  if (auto it = hw_.find(thread); it != hw_.end()) return *it->second.engine;
  if (auto it = sw_.find(thread); it != sw_.end()) return *it->second.engine;
  throw std::out_of_range("no thread named '" + thread + "'");
}

mem::Mmu& System::mmu(const std::string& thread) {
  auto it = hw_.find(thread);
  if (it == hw_.end()) throw std::out_of_range("no hardware thread named '" + thread + "'");
  return *it->second.mmu;
}

mem::CacheHierarchy& System::caches(const std::string& thread) {
  auto it = sw_.find(thread);
  if (it == sw_.end()) throw std::out_of_range("no software thread named '" + thread + "'");
  return *it->second.caches;
}

dma::DmaEngine& System::dma_engine() {
  if (!dma_) throw std::logic_error("system was synthesized without the DMA engine");
  return *dma_;
}

dma::OffloadDriver& System::offload() {
  if (!offload_) throw std::logic_error("system was synthesized without the offload driver");
  return *offload_;
}

VirtAddr System::buffer(const std::string& name) const {
  auto it = buffers_.find(name);
  if (it == buffers_.end()) throw std::out_of_range("no buffer named '" + name + "'");
  return it->second;
}

void System::start_thread(const std::string& thread) {
  auto& eng = engine(thread);
  ++running_;
  ++started_;
  // A small launch cost: writing the start doorbell via the control bus.
  eng.start([this] { --running_; }, /*start_delay=*/8);
}

void System::start_all() {
  for (const auto& spec : image_.app().threads) start_thread(spec.name);
}

std::string System::running_thread_names() const {
  std::string blocked;
  for (const auto& [name, t] : hw_)
    if (t.engine->running()) blocked += " " + inst_ + name;
  for (const auto& [name, t] : sw_)
    if (t.engine->running()) blocked += " " + inst_ + name;
  return blocked;
}

Cycles System::run_to_completion(Cycles max_cycles) {
  const Cycles t0 = sim_.now();
  if (!sim_.run_until([this] { return all_halted(); }, max_cycles))
    throw std::runtime_error("deadlock: event queue empty with threads blocked:" +
                             running_thread_names());
  return sim_.now() - t0;
}

}  // namespace vmsls::sls
