#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {
namespace {

WorkloadParams tiny() {
  WorkloadParams p;
  p.scale = 0.1;
  return p;
}

TEST(ExtraRegistry, NamesResolve) {
  ASSERT_EQ(extra_workload_names().size(), 4u);
  for (const auto& n : extra_workload_names()) {
    auto wl = make_workload(n, tiny());
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->name(), n);
  }
}

class ExtraWorkloadShape : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtraWorkloadShape, RunsEndToEndUnderBothExtremes) {
  SimConfig cfg;
  cfg.gpu.num_sms = 8;
  cfg.gpu.warps_per_sm = 2;
  for (const PolicyKind policy : {PolicyKind::kFirstTouch, PolicyKind::kAdaptive}) {
    cfg.policy.policy = policy;
    const RunResult r = run_workload(GetParam(), cfg, 1.25, tiny());
    EXPECT_GT(r.stats.total_accesses, 0u);
    EXPECT_GT(r.stats.kernel_cycles, 0u);
    EXPECT_LE(r.stats.local_accesses + r.stats.remote_accesses, r.stats.total_accesses);
  }
}

INSTANTIATE_TEST_SUITE_P(Extras, ExtraWorkloadShape,
                         ::testing::Values("spmv", "pagerank", "kmeans", "histogram"));

TEST(ExtraCharacterization, SpmvMatrixIsColdReadOnceXIsHot) {
  auto wl = make_workload("spmv", tiny());
  AddressSpace space;
  wl->build(space);
  std::map<std::string, std::uint64_t> acc, pages;
  std::vector<Access> buf;
  for (const auto& k : wl->schedule()) {
    for (std::uint64_t t = 0; t < k->num_tasks(); ++t) {
      buf.clear();
      k->gen_task(t, buf);
      for (const Access& a : buf) {
        const auto id = space.find(a.addr);
        if (!id) continue;
        acc[space.alloc(*id).name] += a.count;
      }
    }
  }
  // The gathered x vector is touched nnz times against its small size;
  // values are streamed once per iteration.
  AddressSpace sizing;
  make_workload("spmv", tiny())->build(sizing);
  double vals_density = 0, x_density = 0;
  for (const Allocation& a : sizing.allocations()) {
    const double density =
        static_cast<double>(acc[a.name]) / static_cast<double>(a.user_size / kPageSize);
    if (a.name == "values") vals_density = density;
    if (a.name == "x") x_density = density;
  }
  EXPECT_GT(x_density, 2.0 * vals_density);
}

TEST(ExtraCharacterization, HistogramBinsAreHotAndWritten) {
  auto wl = make_workload("histogram", tiny());
  AddressSpace space;
  wl->build(space);
  std::uint64_t bin_writes = 0, input_writes = 0;
  std::vector<Access> buf;
  for (const auto& k : wl->schedule()) {
    for (std::uint64_t t = 0; t < k->num_tasks(); ++t) {
      buf.clear();
      k->gen_task(t, buf);
      for (const Access& a : buf) {
        if (a.type != AccessType::kWrite) continue;
        const auto id = space.find(a.addr);
        ASSERT_TRUE(id.has_value());
        if (space.alloc(*id).name == "bins") {
          ++bin_writes;
        } else {
          ++input_writes;
        }
      }
    }
  }
  EXPECT_GT(bin_writes, 0u);
  EXPECT_EQ(input_writes, 0u);  // the input stream is read-only
}

}  // namespace
}  // namespace uvmsim
