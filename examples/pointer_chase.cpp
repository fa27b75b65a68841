// Pointer chasing: why hardware threads want virtual memory.
//
// Traverses a randomly linked list two ways:
//
//   (a) SVM hardware thread — walks the user's pointer-linked nodes in
//       place through its TLB/MMU;
//   (b) copy-based offload — the conventional flow must first ship the
//       whole node array into a pinned buffer. Because physical node
//       addresses differ from virtual ones, the driver must also rewrite
//       ("swizzle") every next-pointer — that serializing translation pass
//       runs on the CPU and is exactly what the paper's design eliminates.
//
// The example prints cycle counts for both, with phase breakdowns.

#include <iostream>

#include "sls/synthesis.hpp"
#include "sls/system.hpp"
#include "workloads/workloads.hpp"

using namespace vmsls;

namespace {
constexpr u64 kNodes = 8192;
constexpr u64 kNodeBytes = 32;

Cycles run_svm() {
  workloads::WorkloadParams params;
  params.n = kNodes;
  const auto wl = workloads::make_pointer_chase(params);
  const auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware);
  sls::SynthesisFlow flow(sls::zynq7020());
  const auto image = flow.synthesize(app);

  sim::Simulator sim;
  auto system = image.elaborate(sim);
  wl.setup(*system);
  system->start_all();
  const Cycles cycles = system->run_to_completion();
  if (!wl.verify(*system)) throw std::runtime_error("SVM run produced a wrong sum");
  std::cout << "  [svm] traversal: " << cycles << " cycles, TLB hit rate "
            << system->mmu("worker").tlb().hit_rate() * 100 << "%\n";
  return cycles;
}

Cycles run_dma_baseline() {
  // Same kernel, but the thread addresses memory physically, so the driver
  // must copy the nodes into a pinned buffer and swizzle the pointers.
  workloads::WorkloadParams params;
  params.n = kNodes;
  const auto wl = workloads::make_pointer_chase(params);
  auto app = workloads::single_thread_app(wl, sls::ThreadKind::kHardware,
                                          sls::Addressing::kPhysical);
  sls::SynthesisOptions opts;
  opts.include_dma = true;
  sls::SynthesisFlow flow(sls::zynq7020(), opts);
  const auto image = flow.synthesize(app);

  sim::Simulator sim;
  auto system = image.elaborate(sim);

  // Host-side setup builds the list in user memory as usual.
  const auto base_setup = wl.setup;
  base_setup(*system);
  // Drain the args the workload pushed; the baseline passes physical ones.
  auto& args = system->process().mailbox(system->image().app().mailbox_index("args"));
  i64 ignored = 0;
  while (args.try_get(ignored)) {
  }

  const u64 total_bytes = kNodes * kNodeBytes;
  auto pinned = system->offload().alloc_pinned(total_bytes);

  Cycles copy_cycles = 0;
  Cycles compute_cycles = 0;
  bool done = false;

  auto& sim_ref = system->simulator();
  const Cycles t0 = sim_ref.now();
  const VirtAddr nodes_va = system->buffer("nodes");

  system->offload().copy_in(nodes_va, pinned, 0, total_bytes, [&] {
    // Pointer swizzling: every next-pointer in the pinned copy must be
    // rewritten from virtual to pinned-physical. The driver charges CPU
    // time per node (load, translate, store) for this pass.
    auto& pm = system->physical_memory();
    for (u64 i = 0; i < kNodes; ++i) {
      const PhysAddr node_pa = pinned.pa + i * kNodeBytes;
      const u64 next_va = pm.read_u64(node_pa);
      const u64 next_pa = pinned.pa + (next_va - nodes_va);
      pm.write_u64(node_pa, next_pa);
    }
    const Cycles swizzle_cost = system->os().config().sw_syscall + kNodes * 6;
    system->os().exec_service(swizzle_cost, [&] {
      copy_cycles = sim_ref.now() - t0;
      done = true;
    });
  });
  if (!sim_ref.run_until([&done] { return done; })) throw std::runtime_error("copy-in stalled");

  // The list is one full cycle through all nodes, so traversal from any
  // start yields the same sum; launch from node 0 of the pinned copy.
  auto& worker_args = system->process().mailbox(system->image().app().mailbox_index("args"));
  worker_args.put(static_cast<i64>(pinned.pa), [] {});
  worker_args.put(static_cast<i64>(kNodes), [] {});

  const Cycles t1 = sim_ref.now();
  system->start_all();
  system->run_to_completion();
  compute_cycles = sim_ref.now() - t1;

  if (!wl.verify(*system)) throw std::runtime_error("baseline run produced a wrong sum");
  std::cout << "  [dma] copy+swizzle: " << copy_cycles << " cycles, traversal: " << compute_cycles
            << " cycles, total: " << copy_cycles + compute_cycles << "\n";
  return copy_cycles + compute_cycles;
}
}  // namespace

int main() {
  std::cout << "pointer chase over " << kNodes << " nodes (" << kNodes * kNodeBytes / 1024
            << " KiB of nodes)\n";
  const Cycles svm = run_svm();
  const Cycles dma = run_dma_baseline();
  std::cout << "  SVM is " << static_cast<double>(dma) / static_cast<double>(svm)
            << "x faster end-to-end\n";
  return 0;
}
