// google-benchmark microbenchmarks of the simulator's hot paths: event
// queue scheduling, the warp-step ring, access-counter updates,
// tree-prefetcher expansion, PCIe channel arbitration, eviction victim
// selection, and a small end-to-end simulation as a macro sanity point.
#include <benchmark/benchmark.h>

#include <uvmsim/uvmsim.hpp>

namespace {

using namespace uvmsim;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    for (std::uint64_t i = 0; i < n; ++i) {
      q.schedule_at(i % 97, [] {});
    }
    q.run();
    benchmark::DoNotOptimize(q.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

/// The GPU model's steady state on the event queue: 112 warps (28 SMs x 4)
/// on one registered stepper, each stepping again `gap` cycles after its
/// last step. Starts are spread evenly over one gap, so each pop finds the
/// next warp a short occupancy-bitmap scan away.
struct WarpRing {
  EventQueue q;
  std::uint32_t stepper = 0;
  Cycle gap = 0;

  static void step(void* self, WarpId w) {
    auto* ring = static_cast<WarpRing*>(self);
    ring->q.schedule_warp_in(ring->gap, ring->stepper, w);
  }
};

void BM_WarpStepRing(benchmark::State& state) {
  constexpr std::uint32_t kWarps = 112;
  WarpRing ring;
  ring.gap = static_cast<Cycle>(state.range(0));
  ring.stepper = ring.q.register_warp_stepper(&WarpRing::step, &ring);
  for (WarpId w = 0; w < kWarps; ++w) {
    ring.q.schedule_warp_at(w * ring.gap / kWarps, ring.stepper, w);
  }
  for (auto _ : state) ring.q.step();
  benchmark::DoNotOptimize(ring.q.executed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Gap 300 is bfs/sssp's; 6500 is srad's, the largest registered gap.
BENCHMARK(BM_WarpStepRing)->Arg(300)->Arg(6500);

void BM_AccessCounterRecord(benchmark::State& state) {
  AccessCounterTable t(1024, 16);
  Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.record_access((i++ % 1024) << 16, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AccessCounterRecord);

void BM_AccessCounterHalveAll(benchmark::State& state) {
  AccessCounterTable t(static_cast<std::uint64_t>(state.range(0)), 16);
  for (auto _ : state) {
    t.halve_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AccessCounterHalveAll)->Arg(1024)->Arg(65536);

void BM_TreePrefetchExpandMask(benchmark::State& state) {
  std::uint64_t seed = 7;
  for (auto _ : state) {
    const auto occ = static_cast<std::uint32_t>(splitmix64(seed));
    const auto leaf = static_cast<std::uint32_t>(splitmix64(seed)) % 32;
    benchmark::DoNotOptimize(TreePrefetcher::expand_mask(occ | (1u << leaf), leaf, 32));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreePrefetchExpandMask);

void BM_PcieArbitration(benchmark::State& state) {
  SimConfig cfg;
  PcieFabric p(cfg);
  Cycle now = 0;
  for (auto _ : state) {
    now = p.transfer(PcieDir::kHostToDevice, now, 0, kBasicBlockSize);
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PcieArbitration);

void BM_EvictionVictimSelection(benchmark::State& state) {
  AddressSpace space;
  space.allocate("a", 32 * kLargePageSize);
  BlockTable table(space);
  AccessCounterTable counters(space.total_blocks(), 16);
  for (BlockNum b = 0; b < space.total_blocks(); ++b) {
    table.mark_in_flight(b);
    table.mark_resident(b, b);
    counters.record_access(addr_of_block(b), static_cast<std::uint32_t>(b % 100 + 1));
  }
  EvictionManager mgr(EvictionKind::kLfu, kLargePageSize);
  mgr.attach_index(table, counters);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.select_victims(table, counters, VictimQuery{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvictionVictimSelection);

void BM_L2CacheAccess(benchmark::State& state) {
  L2Config cfg;
  cfg.enabled = true;
  L2Cache cache(cfg);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1u << 22) * kWarpAccessBytes, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L2CacheAccess);

void BM_GraphGeneration(benchmark::State& state) {
  for (auto _ : state) {
    const CsrGraph g =
        make_power_law_graph(static_cast<std::uint32_t>(state.range(0)), 10, 0.6, 42);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GraphGeneration)->Arg(10000)->Arg(50000);

void BM_EndToEndTinyWorkload(benchmark::State& state) {
  WorkloadParams params;
  params.scale = 0.05;
  SimConfig cfg;
  for (auto _ : state) {
    const RunResult r = run_workload("fdtd", cfg, 1.25, params);
    benchmark::DoNotOptimize(r.stats.kernel_cycles);
  }
}
BENCHMARK(BM_EndToEndTinyWorkload)->Unit(benchmark::kMillisecond);

}  // namespace
