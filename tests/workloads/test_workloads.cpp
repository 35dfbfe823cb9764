#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/event_queue.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

WorkloadParams tiny() {
  WorkloadParams p;
  p.scale = 0.1;
  return p;
}

TEST(Registry, KnowsAllEightBenchmarks) {
  const auto& names = workload_names();
  ASSERT_EQ(names.size(), 8u);
  for (const auto& n : names) {
    auto wl = make_workload(n, tiny());
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->name(), n);
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_workload("nosuch", tiny()), std::invalid_argument);
}

TEST(Registry, GeneratorListIsTwelveWithoutReplay) {
  const std::vector<std::string> all = all_generator_workload_names();
  const std::set<std::string> unique(all.begin(), all.end());
  EXPECT_EQ(all.size(), 12u);  // 8 paper + 4 extra
  EXPECT_EQ(unique.size(), all.size());
  EXPECT_EQ(unique.count("replay"), 0u);  // needs trace_file; not a generator
}

class WorkloadShape : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadShape, BuildsAllocationsAndSchedule) {
  auto wl = make_workload(GetParam(), tiny());
  AddressSpace space;
  wl->build(space);
  EXPECT_GT(space.num_allocations(), 1u);
  EXPECT_GT(space.footprint_bytes(), 0u);

  const auto schedule = wl->schedule();
  EXPECT_FALSE(schedule.empty());
  for (const auto& k : schedule) {
    ASSERT_NE(k, nullptr);
    EXPECT_FALSE(k->name().empty());
  }
}

TEST_P(WorkloadShape, AccessesStayWithinAllocations) {
  auto wl = make_workload(GetParam(), tiny());
  AddressSpace space;
  wl->build(space);
  std::vector<Access> buf;
  std::uint64_t checked = 0;
  for (const auto& k : wl->schedule()) {
    const std::uint64_t tasks = k->num_tasks();
    // Sample tasks across the kernel (checking all is slow for big kernels).
    for (std::uint64_t t = 0; t < tasks && checked < 200000; t += 1 + tasks / 64) {
      buf.clear();
      k->gen_task(t, buf);
      for (const Access& a : buf) {
        ++checked;
        const auto owner = space.find(a.addr);
        ASSERT_TRUE(owner.has_value())
            << GetParam() << ": " << k->name() << " touches unmapped VA " << a.addr;
        // The whole coalesced run must stay inside one basic block's span
        // and inside the allocation.
        EXPECT_TRUE(space.alloc(*owner).contains(a.addr + a.bytes() - 1));
        EXPECT_EQ(block_of(a.addr), block_of(a.addr + a.bytes() - 1))
            << "coalesced run crosses a 64 KB boundary";
        EXPECT_GE(a.count, 1u);
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(WorkloadShape, DeterministicGeneration) {
  auto w1 = make_workload(GetParam(), tiny());
  auto w2 = make_workload(GetParam(), tiny());
  AddressSpace s1, s2;
  w1->build(s1);
  w2->build(s2);
  EXPECT_EQ(s1.footprint_bytes(), s2.footprint_bytes());

  const auto k1 = w1->schedule();
  const auto k2 = w2->schedule();
  ASSERT_EQ(k1.size(), k2.size());
  std::vector<Access> a, b;
  for (std::size_t i = 0; i < k1.size(); ++i) {
    ASSERT_EQ(k1[i]->num_tasks(), k2[i]->num_tasks());
    const std::uint64_t n = std::min<std::uint64_t>(k1[i]->num_tasks(), 32);
    // w2 generates its tasks in reverse first: a task's stream must not
    // depend on generation order (the replay/recording contract).
    for (std::uint64_t t = n; t-- > 0;) {
      b.clear();
      k2[i]->gen_task(t, b);
    }
    for (std::uint64_t t = 0; t < n; ++t) {
      a.clear();
      b.clear();
      k1[i]->gen_task(t, a);
      k2[i]->gen_task(t, b);
      ASSERT_EQ(a, b) << GetParam() << " launch " << i << " task " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadShape,
                         ::testing::ValuesIn(all_generator_workload_names()));

TEST(WorkloadScale, ScaleGrowsFootprint) {
  for (const auto& n : workload_names()) {
    WorkloadParams small, big;
    small.scale = 0.1;
    big.scale = 0.3;
    AddressSpace s1, s2;
    make_workload(n, small)->build(s1);
    make_workload(n, big)->build(s2);
    EXPECT_LT(s1.footprint_bytes(), s2.footprint_bytes()) << n;
  }
}

TEST(WorkloadSeeds, IrregularWorkloadsVaryWithSeed) {
  WorkloadParams p1 = tiny(), p2 = tiny();
  p1.seed = 1;
  p2.seed = 2;
  auto w1 = make_workload("ra", p1);
  auto w2 = make_workload("ra", p2);
  AddressSpace s1, s2;
  w1->build(s1);
  w2->build(s2);
  std::vector<Access> a, b;
  w1->schedule()[0]->gen_task(0, a);
  w2->schedule()[0]->gen_task(0, b);
  std::set<VirtAddr> addrs_a, addrs_b;
  for (const Access& x : a) addrs_a.insert(x.addr);
  for (const Access& x : b) addrs_b.insert(x.addr);
  EXPECT_NE(addrs_a, addrs_b);
}

TEST(WorkloadIterations, IterationOverrideChangesScheduleLength) {
  WorkloadParams p = tiny();
  p.iterations = 2;
  const auto short_run = make_workload("fdtd", p);
  p.iterations = 6;
  const auto long_run = make_workload("fdtd", p);
  AddressSpace s1, s2;
  short_run->build(s1);
  long_run->build(s2);
  EXPECT_LT(short_run->schedule().size(), long_run->schedule().size());
}

// A warp schedules its next step `gap` cycles after its access completes.
// An access that waits on no queue completes within the worst unqueued
// latency: a TLB miss's page walk, then either device DRAM or a zero-copy
// round trip plus the wire time of its transactions. Every such step must
// land on the event kernel's timing wheel; a longer gap would send every
// step of the workload through the heap, slowing its runs without changing
// any output.
TEST(WorkloadGaps, EveryWarpStepLandsOnTheWheel) {
  const SimConfig cfg;
  WorkloadParams p;
  p.scale = 0.05;
  for (const std::string& name : all_generator_workload_names()) {
    const std::unique_ptr<Workload> wl = make_workload(name, p);
    AddressSpace space;
    wl->build(space);
    std::uint16_t max_gap = 0;
    std::uint16_t max_count = 0;
    std::set<const Kernel*> seen;
    std::vector<Access> task;
    for (const auto& kernel : wl->schedule()) {
      if (!seen.insert(kernel.get()).second) continue;  // repeated launch
      for (std::uint64_t t = 0; t < kernel->num_tasks(); ++t) {
        task.clear();
        kernel->gen_task(t, task);
        for (const Access& a : task) {
          max_gap = std::max(max_gap, a.gap);
          max_count = std::max(max_count, a.count);
        }
      }
    }
    const double wire_bytes = static_cast<double>(max_count) *
                              static_cast<double>(kWarpAccessBytes + cfg.xfer.remote_overhead_bytes);
    const Cycle remote = cfg.xfer.remote_access_latency +
                         static_cast<Cycle>(std::ceil(wire_bytes / cfg.pcie_bytes_per_cycle()));
    const Cycle latency = cfg.gpu.page_walk_latency + std::max(cfg.gpu.dram_latency, remote);
    EXPECT_LT(Cycle{max_gap} + latency, EventQueue::kWheelSpan)
        << name << ": gap " << max_gap << " + unqueued latency " << latency
        << " (count " << max_count << ")";
  }
}

}  // namespace
}  // namespace uvmsim
