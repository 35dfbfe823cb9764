// perf_hotpath: microbenchmark of the simulator's two hottest paths — victim
// selection under heavy oversubscription (eviction-dominated bfs/sssp runs)
// and raw event-kernel churn — reported as JSON on stdout. scripts/bench.sh
// runs this binary from the current tree and from a pre-overhaul baseline
// checkout and combines both into BENCH_hotpath.json, so this file must only
// use APIs that exist in both trees (run_request, EventQueue, SimStats,
// UvmDriver, Tlb); anything newer is feature-gated (UVMSIM_EVENTQ_HAS_WHEEL
// for the warp-stepper ring, UVMSIM_TLB_HAS_EPOCH for the epoch-tagged TLB
// lookup, __has_include for the eviction index).
//
//   perf_hotpath [--smoke] [--label NAME]
//
// All runs are fully seeded; the numbers below are deterministic up to
// wall-clock noise.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <uvmsim/uvmsim.hpp>

#include "core/uvm_driver.hpp"
#include "gpu/tlb.hpp"
#include "mem/eviction.hpp"
#include "sim/rng.hpp"

// The incremental eviction index only exists post-overhaul; the baseline
// checkout falls back to the reference scan (which is the point: same loop,
// two victim-selection implementations).
#if __has_include("mem/eviction_index.hpp")
#define UVMSIM_HAS_EVICTION_INDEX 1
#endif

// The binary trace subsystem (record/replay) is also newer than the
// baseline checkout; its round-trip lane is gated the same way.
#if __has_include("trace/trace_binary.hpp")
#include "trace/trace_binary.hpp"
#define UVMSIM_HAS_TRACE_BINARY 1
#endif

namespace {

using namespace uvmsim;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Eviction-heavy configuration: adaptive policy + access-counter LFU at
/// 150 % oversubscription, the regime where select_victims dominates.
SimConfig eviction_heavy_cfg() {
  SimConfig cfg;
  cfg.policy.policy = PolicyKind::kAdaptive;
  cfg.mem.eviction = EvictionKind::kLfu;
  return cfg;
}

struct SimRow {
  std::string workload;
  double oversub = 0.0;
  std::uint64_t capacity_bytes = 0;
  double wall_ms = 0.0;
  std::uint64_t far_faults = 0;
  std::uint64_t evictions = 0;
  std::uint64_t accesses = 0;
  Cycle total_cycles = 0;
};

SimRow bench_sim(const std::string& workload, double oversub, double scale) {
  RunRequest req;
  req.workload = workload;
  req.params.scale = scale;
  req.config = eviction_heavy_cfg();
  req.oversub = oversub;

  const auto t0 = Clock::now();
  const RunResult res = run_request(req);
  SimRow row;
  row.workload = workload;
  row.oversub = oversub;
  row.capacity_bytes = res.capacity_bytes;
  row.wall_ms = ms_since(t0);
  row.far_faults = res.stats.far_faults;
  row.evictions = res.stats.evictions;
  row.accesses = res.stats.total_accesses;
  row.total_cycles = res.stats.total_cycles;
  return row;
}

struct EvictRow {
  std::uint64_t selections = 0;
  std::uint64_t victims = 0;
  double wall_ms = 0.0;
};

/// The eviction-heavy oversubscribed steady state, distilled: a large device
/// of `kChunks` sparsely-populated large pages (irregular workloads leave
/// chunks partial) where every fault must select a victim chunk, evict it,
/// and migrate its blocks back in — one select_victims per iteration under
/// LFU (the paper's access-counter scheme), with live counter/touch traffic
/// so recency and frequency keep changing. Sparse residency keeps the
/// per-eviction block shuffling small, so the victim-selection scan itself
/// dominates the loop — exactly the regime the incremental index targets.
EvictRow bench_eviction_selection(std::uint64_t iters) {
  constexpr ChunkNum kChunks = 2048;       // 4 GB footprint: a scan-heavy device
  constexpr std::uint32_t kSparse = 4;     // resident blocks per chunk
  AddressSpace space;
  space.allocate("a", kChunks * kLargePageSize);
  BlockTable table(space);
  AccessCounterTable counters(div_ceil(space.span_end(), std::uint64_t{1} << 16), 16);
  EvictionManager mgr(EvictionKind::kLfu, kLargePageSize);
#ifdef UVMSIM_HAS_EVICTION_INDEX
  mgr.attach_index(table, counters);
#endif
  Rng rng(0x5EED);
  Cycle now = 1;
  for (ChunkNum c = 0; c < kChunks; ++c) {
    const BlockNum first = first_block_of_chunk(c);
    for (std::uint32_t k = 0; k < kSparse; ++k) {
      table.mark_in_flight(first + k);
      table.mark_resident(first + k, now);
    }
  }

  EvictRow row;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    now += 1 + rng.below(3);
    for (int k = 0; k < 4; ++k) {
      const ChunkNum c = rng.below(kChunks);
      const BlockNum b = first_block_of_chunk(c) + rng.below(kSparse);
      table.touch(b, rng.chance(0.25) ? AccessType::kWrite : AccessType::kRead, now);
      counters.record_access(addr_of_block(b),
                             1 + static_cast<std::uint32_t>(rng.below(8)));
    }
    const ChunkNum fc = rng.below(table.num_chunks());
    const std::vector<BlockNum> victims =
        mgr.select_victims(table, counters, VictimQuery{fc, true, now, 512});
    for (const BlockNum v : victims) {
      table.mark_evicted(v);
      counters.record_round_trip(addr_of_block(v));
    }
    // Re-migrate immediately: the device stays full, as under real
    // oversubscription where every eviction makes room for a fault. The
    // faulted-in blocks are accessed (that's why they came back), which
    // rotates the victim choice across chunks instead of re-evicting the
    // same frequency minimum forever.
    for (const BlockNum v : victims) {
      table.mark_in_flight(v);
      table.mark_resident(v, now);
      counters.record_access(addr_of_block(v),
                             1 + static_cast<std::uint32_t>(rng.below(16)));
    }
    row.victims += victims.size();
  }
  row.wall_ms = ms_since(t0);
  row.selections = iters;
  return row;
}

struct ChurnRow {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
};

/// Raw event-kernel churn at the simulator's steady-state queue depth: a few
/// hundred events stay pending (each firing reschedules its replacement with
/// a varied delay) — the access pattern the fault/transfer engines induce.
/// The action carries a 32-byte capture, the driver's `[this, block, cycle,
/// type]`-style size class that the event kernel's inline storage is sized
/// for (and that overflows std::function's small-buffer optimization).
struct ChurnCtx {
  EventQueue q;
  std::uint64_t fired = 0;
  std::uint64_t target = 0;
  std::uint64_t checksum = 0;

  struct Tick {
    ChurnCtx* ctx;
    std::uint64_t block;
    Cycle stamp;
    std::uint64_t salt;
    void operator()() const { ctx->fire(block ^ salt, stamp); }
  };

  void fire(std::uint64_t token, Cycle stamp) {
    ++fired;
    checksum += token ^ stamp;
    if (fired + q.pending() < target) {
      // Vary the delay so the heap is reordered, not just rotated.
      q.schedule_in(1 + (fired * 7) % 13,
                    Tick{this, fired, q.now(), fired * 0x9E3779B97F4A7C15ull});
    }
  }
};

ChurnRow bench_event_churn(std::uint64_t target_events) {
  constexpr std::uint64_t kDepth = 256;
  ChurnCtx ctx;
  ctx.target = target_events;
  const auto t0 = Clock::now();
  for (std::uint64_t lane = 0; lane < kDepth; ++lane) {
    ctx.q.schedule_at(static_cast<Cycle>(lane % 5),
                      ChurnCtx::Tick{&ctx, lane, 0, lane});
  }
  ctx.q.run();
  ChurnRow row;
  row.events = ctx.q.executed();
  row.wall_ms = ms_since(t0);
  if (ctx.checksum == 0xDEADBEEF) std::fprintf(stderr, "!\n");  // keep live
  return row;
}

#ifdef UVMSIM_EVENTQ_HAS_WHEEL
/// Warp-ring churn: the same steady-state queue depth as bench_event_churn,
/// but every event is a warp step scheduled through the registered-stepper
/// ring (plain WarpId payloads, no closure capture) — the shape the GPU model
/// puts on the queue once per access.
struct RingCtx {
  EventQueue q;
  std::uint32_t stepper = 0;
  std::uint64_t fired = 0;
  std::uint64_t target = 0;
  std::uint64_t checksum = 0;

  static void step(void* self, WarpId w) {
    auto* ctx = static_cast<RingCtx*>(self);
    ++ctx->fired;
    ctx->checksum += w;
    if (ctx->fired + ctx->q.pending() < ctx->target) {
      ctx->q.schedule_warp_in(1 + (ctx->fired * 7) % 13, ctx->stepper, w + 1);
    }
  }
};

ChurnRow bench_warp_ring_churn(std::uint64_t target_events) {
  constexpr std::uint64_t kDepth = 256;
  RingCtx ctx;
  ctx.target = target_events;
  ctx.stepper = ctx.q.register_warp_stepper(&RingCtx::step, &ctx);
  const auto t0 = Clock::now();
  for (std::uint64_t lane = 0; lane < kDepth; ++lane) {
    ctx.q.schedule_warp_at(static_cast<Cycle>(lane % 5), ctx.stepper,
                           static_cast<WarpId>(lane));
  }
  ctx.q.run();
  ChurnRow row;
  row.events = ctx.q.executed();
  row.wall_ms = ms_since(t0);
  if (ctx.checksum == 0xDEADBEEF) std::fprintf(stderr, "!\n");  // keep live
  return row;
}
#endif  // UVMSIM_EVENTQ_HAS_WHEEL

struct StormRow {
  std::uint64_t ops = 0;
  double wall_ms = 0.0;
  [[nodiscard]] double ns_per_op() const {
    return ops > 0 ? wall_ms * 1e6 / static_cast<double>(ops) : 0.0;
  }
};

/// Driver fast path in isolation: every block preloaded, then a storm of
/// device-resident accesses — counter increments, recency touches and the
/// DRAM-latency completion, with no faults and no observation sinks. This is
/// the per-access driver overhead that rides on every one of the billions of
/// local accesses a run services.
StormRow bench_driver_storm(std::uint64_t accesses) {
  SimConfig cfg;
  AddressSpace space;
  const std::uint64_t kSpan = 64ull << 20;  // 64 MB working set
  space.allocate("a", kSpan);
  EventQueue q;
  SimStats stats;
  UvmDriver drv(cfg, space, 2 * kSpan, q, stats);  // no oversubscription
  drv.preload_all([](Cycle) {});
  q.run();

  Rng rng(0xACCE55);
  StormRow row;
  std::uint64_t checksum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < accesses; ++i) {
    const VirtAddr addr = (i * 256 + rng.below(128)) % kSpan;
    const AccessType type = rng.chance(0.25) ? AccessType::kWrite : AccessType::kRead;
    const AccessOutcome out =
        drv.access(static_cast<WarpId>(i & 63), addr, type, 1, q.now() + i);
    checksum += out.done;
  }
  row.wall_ms = ms_since(t0);
  row.ops = accesses;
  if (checksum == 0xDEADBEEF) std::fprintf(stderr, "!\n");  // keep live
  return row;
}

/// Per-SM TLB in isolation: the lookup-or-install that runs once per access,
/// over a stream mixing sequential runs (hits) with scattered jumps (misses).
StormRow bench_tlb_storm(std::uint64_t lookups) {
  Tlb tlb(64);
  Rng rng(0x71B);
  StormRow row;
  std::uint64_t hits = 0;
  PageNum p = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < lookups; ++i) {
    p = (i & 7) != 0 ? p + 1 : rng.below(1u << 20);  // 7 sequential : 1 jump
#ifdef UVMSIM_TLB_HAS_EPOCH
    if (tlb.access(p, 0)) ++hits;
#else
    if (tlb.access(p)) ++hits;
#endif
  }
  row.wall_ms = ms_since(t0);
  row.ops = lookups;
  if (hits == 0xDEADBEEF) std::fprintf(stderr, "!\n");  // keep live
  return row;
}

#ifdef UVMSIM_HAS_TRACE_BINARY
struct TraceRow {
  std::uint64_t records = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t peak_decoded_bytes = 0;
  double record_wall_ms = 0.0;
  double replay_wall_ms = 0.0;
  bool stats_equal = false;
};

/// Record→replay round trip of an oversubscribed run: recording overhead on
/// top of the bare sim, replay throughput from the streaming reader, and the
/// reader's bounded decoded footprint (peak_decoded_bytes ≪ file size for a
/// chunked trace — the RSS guarantee for million-access captures).
TraceRow bench_trace_roundtrip(double scale) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("perf_hotpath_trace." + std::to_string(getpid()) + ".trb"))
                               .string();
  TraceRow row;
  RunRequest req;
  req.workload = "ra";
  req.params.scale = scale;
  req.config = eviction_heavy_cfg();
  req.oversub = 1.3333;

  RunResult recorded;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    TraceWriter writer(os, {req.workload, req.params.seed, 0});
    SimConfig cfg = req.config;
    cfg.collect_traces = true;
    RunRequest rec = req;
    rec.config = cfg;
    RunOptions opts;
    opts.trace_sink = &writer;
    const auto t0 = Clock::now();
    recorded = run_request(rec, opts);
    writer.finalize();
    row.record_wall_ms = ms_since(t0);
    row.records = writer.records_written();
  }
  {
    RunRequest rep = req;
    rep.workload = "replay";
    rep.params.trace_file = path;
    const auto t0 = Clock::now();
    const RunResult replayed = run_request(rep);
    row.replay_wall_ms = ms_since(t0);
    row.stats_equal = replayed.stats == recorded.stats;
  }
  {
    TraceReader reader(path);
    row.file_bytes = reader.file_bytes();
    std::vector<Access> task;
    for (std::uint32_t l = 0; l < reader.meta().launches.size(); ++l) {
      for (std::uint64_t t = 0; t < reader.meta().launches[l].num_tasks; ++t) {
        task.clear();
        reader.read_task(l, t, task);
      }
    }
    row.peak_decoded_bytes = reader.peak_decoded_bytes();
  }
  std::remove(path.c_str());
  return row;
}
#endif  // UVMSIM_HAS_TRACE_BINARY

/// One attribution lane: a measured per-op cost scaled by the op count the
/// sim runs actually performed, expressed as a share of sim_wall_ms.
struct Lane {
  const char* key;
  double ns_per_op;
  std::uint64_t ops;
  [[nodiscard]] double est_ms() const {
    return ns_per_op * static_cast<double>(ops) / 1e6;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string label = "current";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_hotpath [--smoke] [--label NAME]\n");
      return 2;
    }
  }

  const double scale = smoke ? 0.05 : 0.3;
  const std::uint64_t churn_events = smoke ? 400000 : 4000000;
  const std::uint64_t evict_iters = smoke ? 1500 : 15000;
  const std::uint64_t storm_accesses = smoke ? 200000 : 2000000;
  const std::uint64_t tlb_lookups = smoke ? 1000000 : 10000000;

  // End-to-end lanes, each at its own device capacity: at scale 0.3 bfs
  // derives the same 4 MB device at 125 % and 150 %, so its second lane
  // runs at 200 % (2 MB).
  struct SimLane {
    const char* workload;
    double oversub;
  };
  const SimLane sim_lanes[] = {{"bfs", 1.25}, {"bfs", 2.0}, {"sssp", 1.25}, {"sssp", 1.5}};
  // Generate the lanes' graphs and wavefronts before any timing starts, so
  // no lane's wall includes cold input generation.
  WorkloadParams warm;
  warm.scale = scale;
  for (const SimLane& lane : sim_lanes) {
    AddressSpace space;
    make_workload(lane.workload, warm)->build(space);
  }
  std::vector<SimRow> rows;
  for (const SimLane& lane : sim_lanes) {
    rows.push_back(bench_sim(lane.workload, lane.oversub, scale));
  }
  const EvictRow evict = bench_eviction_selection(evict_iters);
  const ChurnRow churn = bench_event_churn(churn_events);
#ifdef UVMSIM_EVENTQ_HAS_WHEEL
  const ChurnRow ring = bench_warp_ring_churn(churn_events);
#endif
  const StormRow driver = bench_driver_storm(storm_accesses);
  const StormRow tlb = bench_tlb_storm(tlb_lookups);
#ifdef UVMSIM_HAS_TRACE_BINARY
  const TraceRow trace = bench_trace_roundtrip(scale);
#endif

  double sim_wall_ms = 0.0;
  std::uint64_t faults = 0;
  std::uint64_t accesses = 0;
  std::uint64_t sim_evictions = 0;
  for (const SimRow& r : rows) {
    sim_wall_ms += r.wall_ms;
    faults += r.far_faults;
    accesses += r.accesses;
    sim_evictions += r.evictions;
  }

  // Cycle attribution: per-op costs from the isolation microbenches scaled by
  // the op counts the sim runs performed. Event-dispatch ops approximate the
  // queue traffic (one warp step per access plus engine/transfer events); the
  // remainder lane absorbs everything unmeasured (kernel task generation, the
  // policy layer, stats, allocator noise).
  const double churn_ns =
      churn.events > 0 ? churn.wall_ms * 1e6 / static_cast<double>(churn.events) : 0.0;
#ifdef UVMSIM_EVENTQ_HAS_WHEEL
  const double dispatch_ns =
      ring.events > 0 ? ring.wall_ms * 1e6 / static_cast<double>(ring.events) : churn_ns;
#else
  const double dispatch_ns = churn_ns;
#endif
  const double evict_ns =
      evict.selections > 0 ? evict.wall_ms * 1e6 / static_cast<double>(evict.selections)
                           : 0.0;
  const std::uint64_t dispatch_ops = accesses + 2 * faults;
  const Lane lanes[] = {
      {"event_dispatch", dispatch_ns, dispatch_ops},
      {"driver", driver.ns_per_op(), accesses},
      {"tlb_l2", tlb.ns_per_op(), accesses},
      {"eviction", evict_ns, sim_evictions},
  };

  std::printf("{\n  \"label\": \"%s\",\n  \"smoke\": %s,\n  \"scale\": %g,\n",
              label.c_str(), smoke ? "true" : "false", scale);
  std::printf("  \"sim_runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SimRow& r = rows[i];
    std::printf("    {\"workload\": \"%s\", \"oversub\": %.2f, \"capacity_bytes\": %llu, "
                "\"wall_ms\": %.2f, \"far_faults\": %llu, \"evictions\": %llu, "
                "\"accesses\": %llu, \"total_cycles\": %llu}%s\n",
                r.workload.c_str(), r.oversub,
                static_cast<unsigned long long>(r.capacity_bytes), r.wall_ms,
                static_cast<unsigned long long>(r.far_faults),
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(r.accesses),
                static_cast<unsigned long long>(r.total_cycles),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"sim_wall_ms\": %.2f,\n", sim_wall_ms);
  std::printf("  \"eviction_microbench\": {\"chunks\": 2048, \"selections\": %llu, "
              "\"victims\": %llu, \"wall_ms\": %.2f, \"selections_per_sec\": %.0f},\n",
              static_cast<unsigned long long>(evict.selections),
              static_cast<unsigned long long>(evict.victims), evict.wall_ms,
              evict.wall_ms > 0
                  ? static_cast<double>(evict.selections) * 1000.0 / evict.wall_ms
                  : 0.0);
  std::printf("  \"faults_per_sec\": %.0f,\n",
              sim_wall_ms > 0 ? static_cast<double>(faults) * 1000.0 / sim_wall_ms : 0.0);
  std::printf("  \"accesses_per_sec\": %.0f,\n",
              sim_wall_ms > 0 ? static_cast<double>(accesses) * 1000.0 / sim_wall_ms
                              : 0.0);
  std::printf("  \"event_queue\": {\"events\": %llu, \"wall_ms\": %.2f, "
              "\"events_per_sec\": %.0f},\n",
              static_cast<unsigned long long>(churn.events), churn.wall_ms,
              churn.wall_ms > 0
                  ? static_cast<double>(churn.events) * 1000.0 / churn.wall_ms
                  : 0.0);
#ifdef UVMSIM_EVENTQ_HAS_WHEEL
  std::printf("  \"event_queue_warp_ring\": {\"events\": %llu, \"wall_ms\": %.2f, "
              "\"events_per_sec\": %.0f},\n",
              static_cast<unsigned long long>(ring.events), ring.wall_ms,
              ring.wall_ms > 0
                  ? static_cast<double>(ring.events) * 1000.0 / ring.wall_ms
                  : 0.0);
#endif
  std::printf("  \"driver_storm\": {\"accesses\": %llu, \"wall_ms\": %.2f, "
              "\"ns_per_access\": %.1f},\n",
              static_cast<unsigned long long>(driver.ops), driver.wall_ms,
              driver.ns_per_op());
  std::printf("  \"tlb_storm\": {\"lookups\": %llu, \"wall_ms\": %.2f, "
              "\"ns_per_lookup\": %.2f},\n",
              static_cast<unsigned long long>(tlb.ops), tlb.wall_ms, tlb.ns_per_op());
  std::printf("  \"attribution\": {\n");
  double attributed_ms = 0.0;
  for (const Lane& lane : lanes) {
    attributed_ms += lane.est_ms();
    std::printf("    \"%s\": {\"ns_per_op\": %.2f, \"ops\": %llu, \"est_ms\": %.2f, "
                "\"est_share\": %.3f},\n",
                lane.key, lane.ns_per_op, static_cast<unsigned long long>(lane.ops),
                lane.est_ms(),
                sim_wall_ms > 0 ? lane.est_ms() / sim_wall_ms : 0.0);
  }
  const double other_ms = sim_wall_ms > attributed_ms ? sim_wall_ms - attributed_ms : 0.0;
  std::printf("    \"other\": {\"est_ms\": %.2f, \"est_share\": %.3f}\n  },\n", other_ms,
              sim_wall_ms > 0 ? other_ms / sim_wall_ms : 0.0);
#ifdef UVMSIM_HAS_TRACE_BINARY
  std::printf("  \"trace_roundtrip\": {\"records\": %llu, \"file_bytes\": %llu, "
              "\"peak_decoded_bytes\": %llu, \"record_wall_ms\": %.2f, "
              "\"replay_wall_ms\": %.2f, \"stats_equal\": %s},\n",
              static_cast<unsigned long long>(trace.records),
              static_cast<unsigned long long>(trace.file_bytes),
              static_cast<unsigned long long>(trace.peak_decoded_bytes),
              trace.record_wall_ms, trace.replay_wall_ms,
              trace.stats_equal ? "true" : "false");
#endif
  std::printf("  \"peak_rss_kb\": %ld\n}\n", peak_rss_kb());
  return 0;
}
