// Irregular workloads (paper §III-B): hot/cold allocation split — dense
// sequential access to small status arrays, sparse seldom access to large
// read-only data.
//   bfs  — level-synchronous BFS over a synthetic power-law CSR graph; the
//          GPU streams replay a real host-side traversal.
//   sssp — Bellman-Ford rounds over the same substrate; kernel1 is sparse
//          (worklist relaxations), kernel2 is a dense status scan, matching
//          the Fig 2b/3c-d characterization.
//   nw   — Needleman-Wunsch wavefront over two large matrices: read-only
//          reference (cold) and read-write score matrix (hot), one kernel
//          launch per anti-diagonal as in Rodinia.
//   ra   — HPCC RandomAccess (GUPS): uniform random read-modify-write over a
//          large table with zero reuse — the perfect zero-copy candidate.
#include <algorithm>
#include <memory>

#include "workloads/common.hpp"
#include "workloads/graph_gen.hpp"
#include "workloads/input_cache.hpp"
#include "workloads/registry.hpp"

namespace uvmsim {

namespace {

// ---------------------------------------------------------------------------
// Graph workload shared state
// ---------------------------------------------------------------------------

struct GraphLayout {
  Region nodes;     ///< CSR offsets (+degree), 8 B per node — hot-ish
  Region edges;     ///< CSR targets, 8 B per edge — large, cold, read-only
  Region weights;   ///< 4 B per edge (sssp only) — cold, read-only
  Region status;    ///< visited/dist, 4 B per node — hot, read-write
  Region aux;       ///< cost/flags, 4 B per node — hot, read-write
  Region frontier;  ///< worklist buffers — hot
};

struct GraphState {
  std::shared_ptr<const CsrGraph> graph;  ///< shared via the input cache
  std::shared_ptr<const WaveList> waves;  ///< frontiers or worklists (shared)
  std::size_t num_waves = 0;              ///< replayed prefix of `waves`
  GraphLayout mem;
  std::uint64_t seed = 0;
};

/// Cache key for the graph substrate; must encode every generator parameter.
std::string graph_key(const std::string& kind, std::uint32_t num_nodes,
                      std::uint32_t avg_degree, std::uint64_t seed) {
  return kind + "/n=" + std::to_string(num_nodes) + "/d=" + std::to_string(avg_degree) +
         "/seed=" + std::to_string(seed);
}

/// Sparse expansion kernel shared by bfs and sssp kernel1: process one wave
/// of nodes; per node read its CSR slot and edge run, probe the status of
/// every neighbour, and write status/aux for a subset (the newly relaxed
/// nodes). `read_weights` adds the sssp weight-array reads.
class ExpandKernel final : public Kernel {
 public:
  ExpandKernel(std::string name, std::shared_ptr<const GraphState> st, std::uint32_t wave,
               bool read_weights, double write_fraction, std::uint16_t gap)
      : name_(std::move(name)),
        st_(std::move(st)),
        wave_(wave),
        read_weights_(read_weights),
        write_fraction_(write_fraction),
        gap_(gap) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil((*st_->waves)[wave_].size(), kNodesPerTask);
  }

  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const auto& wave = (*st_->waves)[wave_];
    const CsrGraph& g = *st_->graph;
    const GraphLayout& m = st_->mem;
    Rng rng = task_rng(st_->seed, wave_, task);

    // Hoisted graph/layout pointers: the push_back calls below may (as far as
    // the compiler can tell) alias anything, forcing a reload of offsets/
    // bases per edge otherwise — and this generator runs once per task on the
    // simulation's critical path.
    const std::uint32_t* const offsets = g.offsets.data();
    const std::uint32_t* const targets = g.targets.data();
    const VirtAddr status_base = m.status.base;
    const VirtAddr aux_base = m.aux.base;

    const std::size_t first = task * kNodesPerTask;
    const std::size_t last = std::min(wave.size(), first + kNodesPerTask);
    for (std::size_t i = first; i < last; ++i) {
      const std::uint32_t v = wave[i];
      // Worklist entries are read coalesced: one 128 B transaction per 32.
      if (i % 32 == 0) {
        out.push_back(Access{align_line(m.frontier.at(i * 4)), AccessType::kRead, 1, gap_});
      }
      // CSR offset slot.
      out.push_back(Access{align_line(m.nodes.at(static_cast<std::uint64_t>(v) * 8)),
                           AccessType::kRead, 1, gap_});
      // Edge run: deg consecutive 8 B targets (sparse position, dense run).
      const std::uint32_t e_begin = offsets[v];
      const std::uint32_t e_end = offsets[v + 1];
      const std::uint32_t deg = e_end - e_begin;
      const std::uint64_t run_base = static_cast<std::uint64_t>(e_begin) * 8;
      emit_run(out, align_line(m.edges.at(run_base)), static_cast<std::uint64_t>(deg) * 8);
      if (read_weights_) {
        emit_run(out, align_line(m.weights.at(static_cast<std::uint64_t>(e_begin) * 4)),
                 static_cast<std::uint64_t>(deg) * 4);
      }
      // Per-neighbour status probe; relaxations write status and aux.
      for (std::uint32_t e = e_begin; e < e_end; ++e) {
        const std::uint64_t u = targets[e];
        out.push_back(Access{align_line(status_base + u * 4), AccessType::kRead, 1, gap_});
        if (rng.chance(write_fraction_)) {
          out.push_back(Access{align_line(status_base + u * 4), AccessType::kWrite, 1, gap_});
          out.push_back(Access{align_line(aux_base + u * 4), AccessType::kWrite, 1, gap_});
        }
      }
    }
  }

 private:
  static constexpr std::size_t kNodesPerTask = 64;

  void emit_run(std::vector<Access>& out, VirtAddr addr, std::uint64_t bytes) const {
    // Split at basic-block boundaries; each event is <= 16 transactions.
    while (bytes > 0) {
      const std::uint64_t to_block_end = kBasicBlockSize - (addr % kBasicBlockSize);
      const std::uint64_t span = std::min({bytes, to_block_end, std::uint64_t{16} * 128});
      const auto count = static_cast<std::uint16_t>(div_ceil(span, kWarpAccessBytes));
      out.push_back(Access{addr, AccessType::kRead, count, gap_});
      addr += span;
      bytes -= span;
    }
  }

  std::string name_;
  std::shared_ptr<const GraphState> st_;
  std::uint32_t wave_;
  bool read_weights_;
  double write_fraction_;
  std::uint16_t gap_;
};

class BfsWorkload final : public Workload {
 public:
  explicit BfsWorkload(WorkloadParams p) : p_(p) {
    // Road lattices have degree ~4 vs the power-law ~10; scale the node
    // count so both inputs present a comparable memory footprint.
    const double nodes = p_.graph == "road" ? 458752.0 : 196608.0;
    num_nodes_ = static_cast<std::uint32_t>(nodes * p_.scale);
  }
  [[nodiscard]] std::string name() const override { return "bfs"; }

  void build(AddressSpace& space) override {
    st_ = std::make_shared<GraphState>();
    st_->seed = p_.seed;
    const bool road = p_.graph == "road";
    const std::string gkey = graph_key(road ? "road" : "plaw10", num_nodes_, 10, p_.seed);
    st_->graph = cached_graph(gkey, [&] {
      return road ? make_road_graph(num_nodes_, 0.02, p_.seed)
                  : make_power_law_graph(num_nodes_, 10, 0.6, p_.seed);
    });
    st_->waves = cached_waves(gkey + "|bfs/src=0",
                              [&] { return bfs_levels(*st_->graph, 0); });
    // Road graphs have hundreds of small levels; cap the replayed levels to
    // keep runs tractable (iterations overrides).
    const std::size_t cap = p_.iterations != 0 ? p_.iterations
                            : road             ? 64
                                               : st_->waves->size();
    st_->num_waves = std::min(st_->waves->size(), cap);

    GraphLayout& m = st_->mem;
    const std::uint64_t n = num_nodes_;
    const std::uint64_t e = st_->graph->num_edges();
    m.nodes = make_region(space, "graph_nodes", (n + 1) * 8);
    m.edges = make_region(space, "graph_edges", e * 8);
    m.status = make_region(space, "visited", n * 4);
    m.aux = make_region(space, "cost", n * 4);
    m.frontier = make_region(space, "frontier", 2 * n * 4);
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    std::vector<std::shared_ptr<const Kernel>> seq;
    MapKernel::Options scan_opt;
    scan_opt.count = 8;
    scan_opt.gap = 300;
    scan_opt.lines_per_task = 16;
    for (std::uint32_t l = 0; l < st_->num_waves; ++l) {
      const double frac =
          l + 1 < st_->num_waves
              ? std::min(1.0, static_cast<double>((*st_->waves)[l + 1].size()) /
                                  static_cast<double>(std::max<std::size_t>(
                                      1, (*st_->waves)[l].size() * 4)))
              : 0.05;
      seq.push_back(std::make_shared<ExpandKernel>("bfs_kernel1", st_, l,
                                                   /*read_weights=*/false, frac, 250));
      // Frontier maintenance: dense scan of visited + cost.
      seq.push_back(std::make_shared<MapKernel>(
          "bfs_kernel2",
          std::vector<MapKernel::Operand>{
              {st_->mem.status.base, st_->mem.status.bytes, AccessType::kRead, 0, 1},
              {st_->mem.aux.base, st_->mem.aux.bytes, AccessType::kRead, 0, 1},
              {st_->mem.frontier.base, st_->mem.frontier.bytes, AccessType::kWrite, 1, 1},
          },
          st_->mem.status.lines(8ull * kWarpAccessBytes), scan_opt));
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  std::uint32_t num_nodes_;
  std::shared_ptr<GraphState> st_;
};

class SsspWorkload final : public Workload {
 public:
  explicit SsspWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = p_.graph == "road" ? 48 : 7;
    const double nodes = p_.graph == "road" ? 393216.0 : 163840.0;
    num_nodes_ = static_cast<std::uint32_t>(nodes * p_.scale);
  }
  [[nodiscard]] std::string name() const override { return "sssp"; }

  void build(AddressSpace& space) override {
    st_ = std::make_shared<GraphState>();
    st_->seed = p_.seed + 1;
    const bool road = p_.graph == "road";
    const std::string gkey =
        graph_key(road ? "road" : "plaw12", num_nodes_, 12, st_->seed);
    st_->graph = cached_graph(gkey, [&] {
      return road ? make_road_graph(num_nodes_, 0.02, st_->seed)
                  : make_power_law_graph(num_nodes_, 12, 0.6, st_->seed);
    });
    st_->waves = cached_waves(
        gkey + "|sssp/src=0/r=" + std::to_string(p_.iterations),
        [&] { return sssp_rounds(*st_->graph, 0, p_.iterations, st_->seed); });
    st_->num_waves = st_->waves->size();

    GraphLayout& m = st_->mem;
    const std::uint64_t n = num_nodes_;
    const std::uint64_t e = st_->graph->num_edges();
    m.nodes = make_region(space, "graph_nodes", (n + 1) * 8);
    m.edges = make_region(space, "graph_edges", e * 8);
    m.weights = make_region(space, "edge_weights", e * 4);
    m.status = make_region(space, "dist", n * 4);
    m.aux = make_region(space, "flags", n * 4);
    m.frontier = make_region(space, "worklist", 2 * n * 4);
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    std::vector<std::shared_ptr<const Kernel>> seq;
    MapKernel::Options scan_opt;
    scan_opt.count = 8;
    scan_opt.gap = 300;
    scan_opt.lines_per_task = 16;
    for (std::uint32_t r = 0; r < st_->num_waves; ++r) {
      seq.push_back(std::make_shared<ExpandKernel>("sssp_kernel1", st_, r,
                                                   /*read_weights=*/true, 0.3, 250));
      // Worklist rebuild: dense sequential scan over dist and flags (the hot
      // sequential kernel2 of Fig 3c/d).
      seq.push_back(std::make_shared<MapKernel>(
          "sssp_kernel2",
          std::vector<MapKernel::Operand>{
              {st_->mem.status.base, st_->mem.status.bytes, AccessType::kRead, 0, 1},
              {st_->mem.aux.base, st_->mem.aux.bytes, AccessType::kRead, 0, 1},
              {st_->mem.aux.base, st_->mem.aux.bytes, AccessType::kWrite, 0, 1},
              {st_->mem.frontier.base, st_->mem.frontier.bytes, AccessType::kWrite, 1, 1},
          },
          st_->mem.status.lines(8ull * kWarpAccessBytes), scan_opt));
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  std::uint32_t num_nodes_;
  std::shared_ptr<GraphState> st_;
};

// ---------------------------------------------------------------------------
// Needleman-Wunsch
// ---------------------------------------------------------------------------

struct NwState {
  Region input;      ///< score matrix, read-write (hot)
  Region reference;  ///< similarity matrix, read-only (cold)
  std::uint32_t dim = 0;          ///< cells per side
  std::uint32_t blocks_per_side = 0;
};

/// One anti-diagonal of 16x16 cell blocks; task = one block. Per block row:
/// read the reference segment, read the left-neighbour input segment, write
/// the block's input segment; plus one top-row read per block.
class NwDiagonalKernel final : public Kernel {
 public:
  NwDiagonalKernel(std::shared_ptr<const NwState> st, std::uint32_t diag, std::uint16_t gap)
      : st_(std::move(st)), diag_(diag), gap_(gap) {}

  [[nodiscard]] std::string name() const override { return "nw_kernel"; }

  [[nodiscard]] std::uint64_t num_tasks() const override {
    const std::uint32_t bs = st_->blocks_per_side;
    const std::uint32_t len = diag_ < bs ? diag_ + 1 : 2 * bs - 1 - diag_;
    return len;
  }

  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    const std::uint32_t bs = st_->blocks_per_side;
    // Block coordinates along the anti-diagonal.
    const std::uint32_t bi =
        diag_ < bs ? static_cast<std::uint32_t>(task) : diag_ - bs + 1 + static_cast<std::uint32_t>(task);
    const std::uint32_t bj = diag_ - bi;
    const std::uint64_t row_bytes = static_cast<std::uint64_t>(st_->dim) * 4;
    const std::uint64_t col_off = static_cast<std::uint64_t>(bj) * 16 * 4;

    // Top-neighbour row (last row of the block above).
    if (bi > 0) {
      const std::uint64_t r = static_cast<std::uint64_t>(bi) * 16 - 1;
      out.push_back(Access{align_line(st_->input.at(r * row_bytes + col_off)), AccessType::kRead, 1, gap_});
    }
    for (std::uint32_t rr = 0; rr < 16; ++rr) {
      const std::uint64_t r = static_cast<std::uint64_t>(bi) * 16 + rr;
      const std::uint64_t row_off = r * row_bytes + col_off;
      out.push_back(Access{align_line(st_->reference.at(row_off)), AccessType::kRead, 1, gap_});
      if (bj > 0) {
        out.push_back(Access{align_line(st_->input.at(row_off - 64)), AccessType::kRead, 1, gap_});
      }
      out.push_back(Access{align_line(st_->input.at(row_off)), AccessType::kWrite, 1, gap_});
    }
  }

 private:
  std::shared_ptr<const NwState> st_;
  std::uint32_t diag_;
  std::uint16_t gap_;
};

class NwWorkload final : public Workload {
 public:
  explicit NwWorkload(WorkloadParams p) : p_(p) {
    // Matrix side in cells: 16-aligned, ~24 MB per matrix at scale 1.
    const auto side = static_cast<std::uint32_t>(2432.0 * std::sqrt(p_.scale));
    dim_ = side / 16 * 16;
  }
  [[nodiscard]] std::string name() const override { return "nw"; }

  void build(AddressSpace& space) override {
    st_ = std::make_shared<NwState>();
    st_->dim = dim_;
    st_->blocks_per_side = dim_ / 16;
    const std::uint64_t bytes = static_cast<std::uint64_t>(dim_) * dim_ * 4;
    st_->input = make_region(space, "input_itemsets", bytes);
    st_->reference = make_region(space, "reference", bytes);
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    std::vector<std::shared_ptr<const Kernel>> seq;
    const std::uint32_t diags = 2 * st_->blocks_per_side - 1;
    seq.reserve(diags);
    for (std::uint32_t d = 0; d < diags; ++d) {
      seq.push_back(std::make_shared<NwDiagonalKernel>(st_, d, 1100));
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  std::uint32_t dim_;
  std::shared_ptr<NwState> st_;
};

// ---------------------------------------------------------------------------
// RandomAccess (GUPS)
// ---------------------------------------------------------------------------

struct RaState {
  Region table;    ///< the update table — huge, uniform random RMW, no reuse
  Region ranval;   ///< the random-stream scratch — small, hot
  std::uint64_t lines = 0;
  std::uint64_t seed = 0;
};

class RaUpdateKernel final : public Kernel {
 public:
  // The table access stream is read-dominant: lookups vastly outnumber
  // committed updates (only a fraction of probes XOR back in this port),
  // which is what makes ra the paper's "perfect candidate for zero-copy
  // host-pinned memory access".
  RaUpdateKernel(std::shared_ptr<const RaState> st, std::uint32_t launch,
                 std::uint64_t updates, std::uint16_t gap, double write_fraction = 0.125)
      : st_(std::move(st)),
        launch_(launch),
        updates_(updates),
        gap_(gap),
        write_fraction_(write_fraction) {}

  [[nodiscard]] std::string name() const override { return "ra_update"; }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return div_ceil(updates_, kUpdatesPerTask);
  }

  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    Rng rng = task_rng(st_->seed, launch_, task);
    const std::uint64_t first = task * kUpdatesPerTask;
    const std::uint64_t last = std::min(updates_, first + kUpdatesPerTask);
    for (std::uint64_t i = first; i < last; ++i) {
      if (i % 16 == 0) {
        // The random stream itself is read sequentially (hot).
        const std::uint64_t off = (i / 16 * kWarpAccessBytes) % st_->ranval.bytes;
        out.push_back(Access{st_->ranval.at(off), AccessType::kRead, 1, gap_});
      }
      const std::uint64_t line = rng.below(st_->lines);
      const VirtAddr addr = st_->table.at(line * kWarpAccessBytes);
      out.push_back(Access{addr, AccessType::kRead, 1, gap_});
      if (rng.chance(write_fraction_)) {
        out.push_back(Access{addr, AccessType::kWrite, 1, gap_});
      }
    }
  }

 private:
  static constexpr std::uint64_t kUpdatesPerTask = 128;
  std::shared_ptr<const RaState> st_;
  std::uint32_t launch_;
  std::uint64_t updates_;
  std::uint16_t gap_;
  double write_fraction_;
};

class RaWorkload final : public Workload {
 public:
  explicit RaWorkload(WorkloadParams p) : p_(p) {
    if (p_.iterations == 0) p_.iterations = 4;
  }
  [[nodiscard]] std::string name() const override { return "ra"; }

  void build(AddressSpace& space) override {
    st_ = std::make_shared<RaState>();
    st_->seed = p_.seed + 2;
    st_->table = make_region(space, "update_table", scaled_bytes(32, p_.scale));
    st_->ranval = make_region(space, "ranval", scaled_bytes(1, p_.scale));
    st_->lines = st_->table.bytes / kWarpAccessBytes;
  }

  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override {
    std::vector<std::shared_ptr<const Kernel>> seq;
    const auto updates = static_cast<std::uint64_t>(262144.0 * p_.scale);
    for (std::uint32_t l = 0; l < p_.iterations; ++l) {
      seq.push_back(std::make_shared<RaUpdateKernel>(st_, l, updates, 150));
    }
    return seq;
  }

 private:
  WorkloadParams p_;
  std::shared_ptr<RaState> st_;
};

}  // namespace

std::unique_ptr<Workload> make_bfs(const WorkloadParams& p) {
  return std::make_unique<BfsWorkload>(p);
}
std::unique_ptr<Workload> make_sssp(const WorkloadParams& p) {
  return std::make_unique<SsspWorkload>(p);
}
std::unique_ptr<Workload> make_nw(const WorkloadParams& p) {
  return std::make_unique<NwWorkload>(p);
}
std::unique_ptr<Workload> make_ra(const WorkloadParams& p) {
  return std::make_unique<RaWorkload>(p);
}

}  // namespace uvmsim
