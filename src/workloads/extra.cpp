// Additional workloads beyond the paper's eight benchmarks — used by the
// generalization experiment (bench/ext_workloads) to check that the adaptive
// heuristic's behaviour carries over to access patterns it was not tuned on.
//
//   spmv      — CSR sparse matrix-vector product: streamed matrix values
//               (cold, read-once), randomly gathered x vector (hot, RO),
//               sequential y output. Irregular.
//   pagerank  — power iteration over a graph: the large edge list is cold
//               but re-streamed EVERY iteration (cyclic cold reuse — a
//               pattern none of the paper's benchmarks has), rank arrays
//               are hot RW. Irregular.
//   kmeans    — points streamed per iteration against tiny hot centroids;
//               dense, sequential, repetitive. Regular.
//   histogram — sequential input stream scattering increments into a small
//               bin array: regular streaming reads + hot random writes.
#include <algorithm>
#include <cmath>
#include <memory>

#include "workloads/common.hpp"
#include "workloads/graph_gen.hpp"
#include "workloads/input_cache.hpp"
#include "workloads/registry.hpp"

namespace uvmsim {

namespace {

// ---------------------------------------------------------------------------
// spmv
// ---------------------------------------------------------------------------

struct SpmvState {
  std::shared_ptr<const CsrGraph> matrix;  ///< sparsity pattern (input cache)
  Region rows;      ///< row pointers — hot-ish sequential
  Region cols;      ///< column indices — cold, read once
  Region vals;      ///< nonzero values — cold, read once
  Region x;         ///< gathered input vector — hot RO
  Region y;         ///< output vector — hot, written sequentially
  std::uint16_t gap = 0;
};

class SpmvKernel final : public Kernel {
 public:
  explicit SpmvKernel(std::shared_ptr<const SpmvState> st) : st_(std::move(st)) {}
  [[nodiscard]] std::string name() const override { return "spmv_csr"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(st_->matrix->num_nodes, kRowsPerTask);
  }

  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const CsrGraph& m = *st_->matrix;
    const std::uint32_t first = static_cast<std::uint32_t>(task * kRowsPerTask);
    const std::uint32_t last =
        std::min(m.num_nodes, first + static_cast<std::uint32_t>(kRowsPerTask));
    for (std::uint32_t r = first; r < last; ++r) {
      if (r % 16 == 0) {
        out.push_back(
            Access{align_line(st_->rows.at(std::uint64_t{r} * 8)), AccessType::kRead, 1,
                   st_->gap});
      }
      // Stream the row's column indices and values (contiguous runs).
      const std::uint64_t nnz = m.degree(r);
      emit_run(out, align_line(st_->cols.at(std::uint64_t{m.offsets[r]} * 4)), nnz * 4);
      emit_run(out, align_line(st_->vals.at(std::uint64_t{m.offsets[r]} * 8)), nnz * 8);
      // Gather x[col] for every nonzero — the irregular part.
      for (std::uint32_t e = m.offsets[r]; e < m.offsets[r + 1]; ++e) {
        out.push_back(Access{align_line(st_->x.at(std::uint64_t{m.targets[e]} * 8)),
                             AccessType::kRead, 1, st_->gap});
      }
      // y[r] accumulation.
      if (r % 16 == 0) {
        out.push_back(Access{align_line(st_->y.at(std::uint64_t{r} * 8)),
                             AccessType::kWrite, 1, st_->gap});
      }
    }
  }

 private:
  static constexpr std::uint64_t kRowsPerTask = 64;

  void emit_run(std::vector<Access>& out, VirtAddr addr, std::uint64_t bytes) const {
    while (bytes > 0) {
      const std::uint64_t to_block_end = kBasicBlockSize - (addr % kBasicBlockSize);
      const std::uint64_t span = std::min({bytes, to_block_end, std::uint64_t{16} * 128});
      out.push_back(Access{addr, AccessType::kRead,
                           static_cast<std::uint16_t>(div_ceil(span, kWarpAccessBytes)),
                           st_->gap});
      addr += span;
      bytes -= span;
    }
  }

  std::shared_ptr<const SpmvState> st_;
};

class SpmvWorkload final : public Workload {
 public:
  explicit SpmvWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 3;
    num_rows_ = static_cast<std::uint32_t>(262144 * p_.scale);
  }
  [[nodiscard]] std::string name() const override { return "spmv"; }

  void build(AddressSpace& space) override {
    st_ = std::make_shared<SpmvState>();
    st_->matrix = cached_graph(
        "plaw12a07/n=" + std::to_string(num_rows_) + "/seed=" + std::to_string(p_.seed + 11),
        [&] { return make_power_law_graph(num_rows_, 12, 0.7, p_.seed + 11); });
    st_->gap = 300;
    const std::uint64_t n = num_rows_;
    const std::uint64_t nnz = st_->matrix->num_edges();
    st_->rows = make_region(space, "row_ptr", (n + 1) * 8);
    st_->cols = make_region(space, "col_idx", nnz * 4);
    st_->vals = make_region(space, "values", nnz * 8);
    st_->x = make_region(space, "x", n * 8);
    st_->y = make_region(space, "y", n * 8);
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    auto k = std::make_shared<SpmvKernel>(st_);
    return std::vector<std::shared_ptr<const Kernel>>(p_.iterations, k);
  }

 private:
  WorkloadParams p_;
  std::uint32_t num_rows_;
  std::shared_ptr<SpmvState> st_;
};

// ---------------------------------------------------------------------------
// pagerank
// ---------------------------------------------------------------------------

struct PagerankState {
  std::shared_ptr<const CsrGraph> graph;  ///< shared via the input cache
  Region offsets;   ///< hot-ish
  Region edges;     ///< cold, but re-streamed every iteration
  Region rank;      ///< hot RO within an iteration
  Region next_rank; ///< hot W
  std::uint16_t gap = 0;
};

class PagerankKernel final : public Kernel {
 public:
  explicit PagerankKernel(std::shared_ptr<const PagerankState> st) : st_(std::move(st)) {}
  [[nodiscard]] std::string name() const override { return "pagerank_pull"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(st_->graph->num_nodes, kNodesPerTask);
  }

  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const CsrGraph& g = *st_->graph;
    const std::uint32_t first = static_cast<std::uint32_t>(task * kNodesPerTask);
    const std::uint32_t last =
        std::min(g.num_nodes, first + static_cast<std::uint32_t>(kNodesPerTask));
    for (std::uint32_t v = first; v < last; ++v) {
      if (v % 16 == 0) {
        out.push_back(Access{align_line(st_->offsets.at(std::uint64_t{v} * 8)),
                             AccessType::kRead, 1, st_->gap});
      }
      // Stream the in-edge list of v; gather the neighbours' ranks.
      const std::uint64_t deg = g.degree(v);
      VirtAddr e_addr = align_line(st_->edges.at(std::uint64_t{g.offsets[v]} * 8));
      std::uint64_t bytes = deg * 8;
      while (bytes > 0) {
        const std::uint64_t to_block_end = kBasicBlockSize - (e_addr % kBasicBlockSize);
        const std::uint64_t span = std::min({bytes, to_block_end, std::uint64_t{2048}});
        out.push_back(Access{e_addr, AccessType::kRead,
                             static_cast<std::uint16_t>(div_ceil(span, kWarpAccessBytes)),
                             st_->gap});
        e_addr += span;
        bytes -= span;
      }
      for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        out.push_back(Access{align_line(st_->rank.at(std::uint64_t{g.targets[e]} * 8)),
                             AccessType::kRead, 1, st_->gap});
      }
      if (v % 16 == 0) {
        out.push_back(Access{align_line(st_->next_rank.at(std::uint64_t{v} * 8)),
                             AccessType::kWrite, 1, st_->gap});
      }
    }
  }

 private:
  static constexpr std::uint64_t kNodesPerTask = 64;
  std::shared_ptr<const PagerankState> st_;
};

class PagerankWorkload final : public Workload {
 public:
  explicit PagerankWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 4;
    num_nodes_ = static_cast<std::uint32_t>(196608 * p_.scale);
  }
  [[nodiscard]] std::string name() const override { return "pagerank"; }

  void build(AddressSpace& space) override {
    st_ = std::make_shared<PagerankState>();
    st_->graph = cached_graph(
        "plaw10a08/n=" + std::to_string(num_nodes_) + "/seed=" + std::to_string(p_.seed + 13),
        [&] { return make_power_law_graph(num_nodes_, 10, 0.8, p_.seed + 13); });
    st_->gap = 300;
    const std::uint64_t n = num_nodes_;
    const std::uint64_t e = st_->graph->num_edges();
    st_->offsets = make_region(space, "offsets", (n + 1) * 8);
    st_->edges = make_region(space, "in_edges", e * 8);
    st_->rank = make_region(space, "rank", n * 8);
    st_->next_rank = make_region(space, "next_rank", n * 8);
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    auto k = std::make_shared<PagerankKernel>(st_);
    return std::vector<std::shared_ptr<const Kernel>>(p_.iterations, k);
  }

 private:
  WorkloadParams p_;
  std::uint32_t num_nodes_;
  std::shared_ptr<PagerankState> st_;
};

// ---------------------------------------------------------------------------
// kmeans
// ---------------------------------------------------------------------------

class KmeansWorkload final : public Workload {
 public:
  explicit KmeansWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 5;
  }
  [[nodiscard]] std::string name() const override { return "kmeans"; }

  void build(AddressSpace& space) override {
    points_ = make_region(space, "points", scaled_bytes(36, p_.scale));
    centroids_ = make_region(space, "centroids", scaled_bytes(0.25, p_.scale));
    assign_ = make_region(space, "assignments", scaled_bytes(2, p_.scale));
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    constexpr std::uint64_t kLine = 8ull * kWarpAccessBytes;
    MapKernel::Options opt;
    opt.count = 8;
    opt.gap = 4000;  // distance computation against every centroid
    opt.lines_per_task = 16;

    auto assign = std::make_shared<MapKernel>(
        "kmeans_assign",
        std::vector<MapKernel::Operand>{
            {points_.base, points_.bytes, AccessType::kRead, 0, 1},
            {centroids_.base, centroids_.bytes, AccessType::kRead, 4, 1},
            {assign_.base, assign_.bytes, AccessType::kWrite, 4, 1},
        },
        points_.lines(kLine), opt);
    return std::vector<std::shared_ptr<const Kernel>>(p_.iterations, assign);
  }

 private:
  WorkloadParams p_;
  Region points_, centroids_, assign_;
};

// ---------------------------------------------------------------------------
// histogram
// ---------------------------------------------------------------------------

struct HistogramState {
  Region input;  ///< streamed once per launch, read-only
  Region bins;   ///< small, hot, random read-modify-write
  std::uint64_t lines = 0;
  std::uint64_t bin_lines = 0;
  std::uint64_t seed = 0;
  std::uint16_t gap = 0;
};

class HistogramKernel final : public Kernel {
 public:
  HistogramKernel(std::shared_ptr<const HistogramState> st, std::uint32_t launch)
      : st_(std::move(st)), launch_(launch) {}
  [[nodiscard]] std::string name() const override { return "histogram"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(st_->lines, kLinesPerTask);
  }

  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    Rng rng = task_rng(st_->seed, launch_, task);
    const std::uint64_t first = task * kLinesPerTask;
    const std::uint64_t last = std::min(st_->lines, first + kLinesPerTask);
    for (std::uint64_t l = first; l < last; ++l) {
      out.push_back(Access{st_->input.at(l * 8 * kWarpAccessBytes), AccessType::kRead, 8,
                           st_->gap});
      // A few scattered bin updates per input line.
      for (int u = 0; u < 2; ++u) {
        const VirtAddr bin = st_->bins.at(rng.below(st_->bin_lines) * kWarpAccessBytes);
        out.push_back(Access{bin, AccessType::kRead, 1, st_->gap});
        out.push_back(Access{bin, AccessType::kWrite, 1, st_->gap});
      }
    }
  }

 private:
  static constexpr std::uint64_t kLinesPerTask = 16;
  std::shared_ptr<const HistogramState> st_;
  std::uint32_t launch_;
};

class HistogramWorkload final : public Workload {
 public:
  explicit HistogramWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 2;
  }
  [[nodiscard]] std::string name() const override { return "histogram"; }

  void build(AddressSpace& space) override {
    st_ = std::make_shared<HistogramState>();
    st_->seed = p_.seed + 17;
    st_->gap = 500;
    st_->input = make_region(space, "input_stream", scaled_bytes(36, p_.scale));
    st_->bins = make_region(space, "bins", scaled_bytes(1, p_.scale));
    st_->lines = st_->input.bytes / (8 * kWarpAccessBytes);
    st_->bin_lines = st_->bins.bytes / kWarpAccessBytes;
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    std::vector<std::shared_ptr<const Kernel>> seq;
    for (std::uint32_t i = 0; i < p_.iterations; ++i) {
      seq.push_back(std::make_shared<HistogramKernel>(st_, i));
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  std::shared_ptr<HistogramState> st_;
};

}  // namespace

std::unique_ptr<Workload> make_spmv(const WorkloadParams& p) {
  return std::make_unique<SpmvWorkload>(p);
}
std::unique_ptr<Workload> make_pagerank(const WorkloadParams& p) {
  return std::make_unique<PagerankWorkload>(p);
}
std::unique_ptr<Workload> make_kmeans(const WorkloadParams& p) {
  return std::make_unique<KmeansWorkload>(p);
}
std::unique_ptr<Workload> make_histogram(const WorkloadParams& p) {
  return std::make_unique<HistogramWorkload>(p);
}

}  // namespace uvmsim
