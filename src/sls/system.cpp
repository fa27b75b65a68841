#include "sls/system.hpp"

#include <stdexcept>
#include <utility>

namespace vmsls::sls {

std::unique_ptr<System> SystemImage::elaborate(sim::Simulator& sim) const {
  return std::make_unique<System>(sim, *this);
}

System::System(sim::Simulator& sim, const SystemImage& image)
    : standalone_machine_(std::make_unique<Machine>(sim, image.platform())),
      machine_(*standalone_machine_),
      sim_(sim),
      image_(image) {
  build();
}

System::System(Machine& machine, const SystemImage& image, std::string instance)
    : machine_(machine), sim_(machine.simulator()), image_(image), inst_(std::move(instance)) {
  if (!inst_.empty() && inst_.back() != '.') inst_ += '.';
  build();
}

void System::build() {
  const PlatformSpec& plat = image_.platform();
  const AppSpec& app = image_.app();
  machine_.require_member(plat, inst_ + app.name);
  const u64 page = machine_.page_bytes();
  mem::PhysicalMemory& pm = machine_.memory();
  mem::MemoryBus& bus = machine_.bus();
  rt::OsModel& os = machine_.os();

  // --- process: address space, page tables, walker ---
  as_ = std::make_unique<mem::AddressSpace>(pm, machine_.frames(), plat.page_table);
  as_->set_share_index(&machine_.share_index());
  process_ = std::make_unique<rt::Process>(sim_, *as_, inst_ + app.name);
  walker_ = std::make_unique<mem::PageWalker>(sim_, bus, pm, as_->page_table(), plat.walker,
                                              inst_ + "walker");
  process_->register_walker(walker_.get());
  faults_ = std::make_unique<rt::FaultHandler>(sim_, os, *process_, inst_ + "faults");

  // --- pager daemon (memory-pressure model) ---
  paging::FramePool* pool = machine_.pool();
  if (plat.pager.frame_budget > 0 || pool != nullptr) {
    const std::string name = inst_ + "pager";
    pager_ = std::make_unique<paging::Pager>(sim_, *process_, plat.pager, name,
                                             machine_.swap_for(name, plat.pager.swap),
                                             machine_.buffer_cache());
    pager_->set_os(&os, plat.os.daemon_service);
    pager_->set_bus(&bus);  // COW page copies charge as bus write bursts
    if (pool != nullptr) pool->attach(*pager_);
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
    dma_ = std::make_unique<dma::DmaEngine>(sim_, bus, pm, plat.dma, inst_ + "dma");
    // Under memory pressure the driver fault-pins its transfers through the
    // pager with budget-aware chunked admission — the wiring that lets the
    // SVM-vs-DMA comparison run in the paging regime.
    offload_ = std::make_unique<dma::OffloadDriver>(sim_, os, *process_, *dma_, bus, pm,
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
        sim_, *t.mmu, machine_.bus(), machine_.memory(), plan.port,
        inst_ + "hwt." + spec.name + ".port" + std::to_string(p)));
    // Under memory pressure, in-flight port accesses pin their pages so
    // victim selection (including another process's, via the pool) never
    // retargets a frame mid-transaction. Physically-addressed ports issue
    // frame numbers, not vpns — pinning those would block the wrong pages.
    if (pager_ != nullptr && plan.addressing == Addressing::kVirtual)
      t.ports.back()->set_address_space(as_.get());
  }

  t.os_port = std::make_unique<rt::DelegateOsPort>(sim_, machine_.os(), *process_,
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

  t.caches = std::make_unique<mem::CacheHierarchy>(sim_, machine_.bus(), plat.cpu.caches,
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
