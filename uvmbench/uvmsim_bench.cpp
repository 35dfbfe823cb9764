// uvmsim_bench: the runner behind uvmbench/run_benchmark.py.
//
// One process runs one workload on one thread: simulations go through
// run_batch with jobs = 1, fuzz campaigns through run_fuzz with jobs = 1.
// Every run's output is checked, and a failed check counts as a failed op.
//
//   uvmsim_bench --workload paper-grid|thrash|replay|fuzz --scratch DIR
//                [--seed N] [--seconds S] [--traced] [--smoke]
//
// Untraced (the default): the cold set-up is repeated and setup_s is its
// median; then whole passes of the workload run for about --seconds, and
// the end-to-end metrics are reported. --traced: one untraced
// pass, one pass observed by a TimingSink, and isolated timings of the layers
// that can be called on their own, over the pass's own inputs; the per-layer
// metrics are reported. --smoke shrinks everything to one small pass.
//
// The last line on stdout is one JSON object: workload, seed, traced, ops,
// failed_ops, failures (the first messages), metrics ({name: {value, unit}})
// and info (unbounded figures for people: fig6 ratios and log error, pass
// counts, job wall, the p90 per-access cost, the attribution sum). Exit
// status: 0 when the benchmark ran (failed checks are in the JSON), 2 on a
// usage error or when two runs of a pass collapse into one configuration,
// 1 when the benchmark itself failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <uvmsim/uvmsim.hpp>

#include "check/fuzz.hpp"
#include "check/refmodel.hpp"
#include "check/streamgen.hpp"

namespace {

using namespace uvmsim;
using Clock = std::chrono::steady_clock;

/// The seed the checked-in artifacts were generated with.
constexpr std::uint64_t kDefaultSeed = 0x5eed;
/// Fewest cold set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------ output

struct Args {
  std::string workload;
  std::string scratch;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
};

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) throw std::logic_error("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
  }
  /// One checked op: a run, a case or a whole-workload check.
  void op(bool passed, const std::string& what) { ops(1, passed ? 0 : 1, what); }
  /// `attempted` ops of which `failed` failed, `what` describing the failure.
  void ops(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
    ops_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 20) failures_.push_back(what);
  }
  void info(const std::string& key, std::string json) {
    info_.emplace_back(key, std::move(json));
  }

  void print(const Args& a) const {
    std::ostringstream os;
    os << std::setprecision(17) << "{\"workload\":";
    obs::write_json_string(os, a.workload);
    os << ",\"seed\":" << a.seed << ",\"traced\":" << (a.traced ? "true" : "false")
       << ",\"ops\":" << ops_ << ",\"failed_ops\":" << failed_ << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      if (i > 0) os << ',';
      obs::write_json_string(os, failures_[i]);
    }
    os << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i > 0 ? "," : "") << '"' << m.name << "\":{\"value\":" << m.value
         << ",\"unit\":\"" << m.unit << "\"}";
    }
    os << "},\"info\":{";
    for (std::size_t i = 0; i < info_.size(); ++i) {
      os << (i > 0 ? "," : "") << '"' << info_[i].first << "\":" << info_[i].second;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::uint64_t ops_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17);
  obs::write_json_number(os, v);
  return os.str();
}

/// Warp accesses the GPU issued: each looks the TLB up exactly once. This,
/// not total_accesses (which counts 128 B transactions), is the unit of
/// host work.
double warp_accesses(const SimStats& s) { return static_cast<double>(s.tlb_hits + s.tlb_misses); }

// ------------------------------------------------------ simulation workloads

constexpr PolicyKind kPaperPolicies[] = {PolicyKind::kFirstTouch, PolicyKind::kStaticAlways,
                                         PolicyKind::kStaticOversub, PolicyKind::kAdaptive};

/// The paper's configuration of a scheme (ts = 8, p = 8): Baseline keeps the
/// stock LRU replacement, every counter-based scheme uses the access-counter
/// LFU (paper §VI).
SimConfig paper_cfg(PolicyKind policy) {
  SimConfig cfg;
  cfg.policy.policy = policy;
  cfg.mem.eviction = policy == PolicyKind::kFirstTouch ? EvictionKind::kLru : EvictionKind::kLfu;
  return cfg;
}

RunRequest sim_request(const std::string& workload, const WorkloadParams& params,
                       PolicyKind policy, double oversub) {
  RunRequest req;
  req.workload = workload;
  req.params = params;
  req.config = paper_cfg(policy);
  req.oversub = oversub;
  return req;
}

std::string label(const RunRequest& r) {
  std::ostringstream os;
  os << r.workload << '/' << r.config.policy.resolved_slug() << '@' << r.oversub;
  return os.str();
}

/// A simulation workload: the runs of one pass in order, and the distinct
/// workload inputs they build.
struct SimPlan {
  std::vector<std::pair<std::string, WorkloadParams>> inputs;
  std::vector<RunRequest> pass;
  RunRequest capture;        ///< replay: the run recorded in set-up
  std::string capture_path;  ///< replay: where its UVMTRB1 capture goes
};

SimPlan make_plan(const Args& a) {
  SimPlan plan;
  WorkloadParams params;
  params.seed = a.seed;
  if (a.workload == "paper-grid") {
    // Fig 6: the eight benchmarks under the four schemes at 125 %.
    params.scale = a.smoke ? 0.1 : 1.0;
    for (const std::string& name : workload_names()) {
      plan.inputs.emplace_back(name, params);
      for (const PolicyKind p : kPaperPolicies) {
        plan.pass.push_back(sim_request(name, params, p, 1.25));
      }
    }
  } else if (a.workload == "thrash") {
    // The fault-bound corner: Baseline and Oversub on the two workloads that
    // fault most, at two oversubscription levels.
    params.scale = 0.25;
    for (const char* name : {"ra", "bfs"}) {
      plan.inputs.emplace_back(name, params);
      for (const PolicyKind p : {PolicyKind::kFirstTouch, PolicyKind::kStaticOversub}) {
        for (const double oversub : {1.25, 1.5}) {
          plan.pass.push_back(sim_request(name, params, p, oversub));
        }
      }
    }
  } else {
    // One capture of sssp under Adaptive, replayed under every scheme.
    params.scale = 0.25;
    plan.capture = sim_request("sssp", params, PolicyKind::kAdaptive, 1.25);
    plan.capture_path = a.scratch + "/capture.trb";
    WorkloadParams replay = params;
    replay.trace_file = plan.capture_path;
    plan.inputs.emplace_back("replay", replay);
    for (const PolicyKind p : kPaperPolicies) {
      plan.pass.push_back(sim_request("replay", replay, p, 1.25));
    }
  }
  return plan;
}

std::uint64_t build_input(const std::string& name, const WorkloadParams& params) {
  const auto workload = make_workload(name, params);
  AddressSpace space;
  workload->build(space);
  (void)workload->schedule();
  return space.footprint_bytes();
}

/// Records plan.capture through the public recording path (a TraceWriter as
/// the run's sink) and returns the recorded run.
RunResult record_capture(const SimPlan& plan) {
  std::ofstream os(plan.capture_path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + plan.capture_path);
  RunRequest req = plan.capture;
  SimConfig digested = req.config;
  digested.mem.oversubscription = req.oversub;
  TraceWriter writer(os, {req.workload, req.params.seed, config_digest(digested)});
  req.config.collect_traces = true;
  RunOptions opts;
  opts.trace_sink = &writer;
  RunResult recorded = run_request(req, opts);
  writer.finalize();
  os.close();
  if (!os) throw std::runtime_error("short write to " + plan.capture_path);
  return recorded;
}

/// Cold set-up: an empty input cache, the replay capture recorded, then every
/// input built once. Leaves the cache warm, so timed runs do not regenerate
/// graphs.
RunResult set_up(const SimPlan& plan) {
  input_cache_clear();
  RunResult recorded;
  if (!plan.capture_path.empty()) recorded = record_capture(plan);
  for (const auto& [name, params] : plan.inputs) (void)build_input(name, params);
  return recorded;
}

/// Two runs of one pass that the simulator cannot tell apart (same input,
/// same configuration, same derived device capacity) would measure one
/// configuration twice; refuse such a plan.
void require_distinct(const SimPlan& plan) {
  std::map<std::string, std::uint64_t> footprints;
  std::set<std::string> seen;
  for (const RunRequest& r : plan.pass) {
    std::ostringstream input;
    input << r.workload << '|' << r.params.trace_file << '|' << r.params.scale << '|'
          << r.params.seed;
    auto it = footprints.find(input.str());
    if (it == footprints.end()) {
      it = footprints.emplace(input.str(), build_input(r.workload, r.params)).first;
    }
    SimConfig cfg = r.config;
    cfg.mem.oversubscription = r.oversub;
    const std::uint64_t capacity = derived_capacity_bytes(cfg, it->second);
    cfg.mem.oversubscription = 0.0;
    const std::string key =
        input.str() + '|' + std::to_string(config_digest(cfg)) + '|' + std::to_string(capacity);
    if (!seen.insert(key).second) {
      throw UsageError("duplicate configuration: " + label(r) + " derives capacity " +
                       std::to_string(capacity) + " bytes, as another run of the pass does");
    }
  }
}

/// The recorded capture must verify end to end before anything replays it.
void check_capture(const SimPlan& plan, Report& rep) {
  if (plan.capture_path.empty()) return;
  try {
    TraceReader(plan.capture_path).verify();
    rep.op(true, "");
  } catch (const std::exception& e) {
    rep.op(false, std::string("capture does not verify: ") + e.what());
  }
}

std::vector<SimStats> stats_of(const BatchResult& b) {
  std::vector<SimStats> out;
  out.reserve(b.entries.size());
  for (const BatchEntry& e : b.entries) out.push_back(e.result.stats);
  return out;
}

/// One op per run: it must succeed and match `ref` (the first pass) exactly.
void check_runs(const BatchResult& b, const std::vector<SimStats>& ref, const char* against,
                Report& rep) {
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    const BatchEntry& e = b.entries[i];
    if (!e.ok()) {
      rep.op(false, label(e.request) + " failed: " + e.error);
    } else {
      rep.op(e.result.stats == ref[i], label(e.request) + ": SimStats differ from " + against);
    }
  }
}

/// Repeats a cold set-up at least kSetupRepeats times and for at least a
/// second (at most 50 times); returns the median time.
template <class SetUp>
double setup_seconds(const Args& a, SetUp&& set_up) {
  std::vector<double> times;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    set_up();
    times.push_back(secs_since(t0));
  } while (!a.smoke && times.size() < 50 &&
           (times.size() < kSetupRepeats || secs_since(start) < 1.0));
  return median(times);
}

/// Calls `pass` for about `seconds`: at least once, and not again once the
/// previous pass suggests the next would end after the deadline.
template <class Pass>
void run_for(double seconds, Pass&& pass) {
  const auto start = Clock::now();
  double last = 0.0;
  do {
    const auto t0 = Clock::now();
    pass();
    last = secs_since(t0);
  } while (secs_since(start) + last <= seconds);
}

/// Paper-reported Fig 6 (simulator) runtimes normalized to Baseline, in
/// workload_names() order: Always, Oversub, Adaptive.
constexpr double kFig6Paper[8][3] = {
    {0.9962, 1.0002, 1.0050}, {1.0068, 1.0052, 1.0077}, {0.9204, 0.9946, 1.0022},
    {1.0004, 1.0000, 1.0001}, {0.8015, 0.9064, 0.7821}, {1.0050, 0.9868, 0.6718},
    {0.2437, 1.0000, 0.2177}, {0.7462, 0.7612, 0.4021},
};

/// The Fig 6 ratios of one paper-grid pass, and the model's error against
/// the paper: mean |ln(sim / paper)| over the 24 non-baseline cells.
void report_fig6(const std::vector<SimStats>& pass, Report& rep) {
  std::ostringstream cells;
  cells << std::setprecision(17) << '{';
  double log_error = 0.0;
  for (std::size_t w = 0; w < workload_names().size(); ++w) {
    const auto base = static_cast<double>(pass[4 * w].kernel_cycles);
    cells << (w > 0 ? "," : "") << '"' << workload_names()[w] << "\":[1";
    for (std::size_t p = 1; p < 4; ++p) {
      const double r = static_cast<double>(pass[4 * w + p].kernel_cycles) / base;
      cells << ',' << r;
      log_error += std::fabs(std::log(r / kFig6Paper[w][p - 1]));
    }
    cells << ']';
  }
  cells << '}';
  rep.info("fig6", cells.str());
  rep.info("fig6_log_error", json_number(log_error / 24.0));
}

void measure_sim(const Args& a, Report& rep) {
  const SimPlan plan = make_plan(a);
  RunResult recorded;
  const double setup_s = setup_seconds(a, [&] { recorded = set_up(plan); });
  require_distinct(plan);
  check_capture(plan, rep);

  BatchOptions serial;
  serial.jobs = 1;
  std::vector<SimStats> ref;
  std::vector<double> pass_s, access_rate, fault_rate, run_ns_per_access;
  run_for(a.seconds, [&] {
    const BatchResult b = run_batch(plan.pass, serial);
    if (ref.empty()) ref = stats_of(b);
    check_runs(b, ref, "the first pass", rep);
    double accesses = 0.0, faults = 0.0;
    for (const BatchEntry& e : b.entries) {
      const double n = warp_accesses(e.result.stats);
      if (!e.ok() || n == 0.0) continue;
      run_ns_per_access.push_back(e.wall_ms * 1e6 / n);
      accesses += n;
      faults += static_cast<double>(e.result.stats.far_faults);
    }
    const double wall = b.wall_ms / 1e3;
    pass_s.push_back(wall);
    access_rate.push_back(accesses / wall);
    fault_rate.push_back(faults / wall);
  });

  if (!plan.capture_path.empty()) {
    rep.op(ref.back() == recorded.stats, "adaptive replay differs from the recorded run");
  }
  if (a.workload == "paper-grid") report_fig6(ref, rep);
  rep.info("passes", std::to_string(pass_s.size()));
  rep.info("runs", std::to_string(run_ns_per_access.size()));
  rep.info("job_wall_s", json_number(median(pass_s)));

  rep.metric("setup_s", setup_s, "s");
  rep.metric("accesses_per_sec", median(access_rate), "1/s");
  rep.metric("faults_per_sec", median(fault_rate), "1/s");
  rep.metric("run_ns_per_access_p50", quantile(run_ns_per_access, 0.5), "ns");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.info("run_ns_per_access_p90", json_number(quantile(run_ns_per_access, 0.9)));
}

// ------------------------------------------------------------ traced runs

/// Spans a traced run's host time is charged to, by the hook that ends each
/// interval.
enum Span : std::size_t {
  kBuild,       ///< on_layout: workload build, driver and GPU construction
  kLaunch,      ///< on_kernel_begin: the previous kernel's drain
  kTask,        ///< on_task: warp refill, i.e. Kernel::gen_task
  kAccess,      ///< on_access: dispatch, warp step, TLB, driver prefix
  kPolicy,      ///< on_decision: on_access -> on_decision, the policy
  kFaultBatch,  ///< on_fault_batch: fault-engine batch staging
  kEviction,    ///< on_device_full, on_eviction: victim selection
  kMigration,   ///< on_migration: prefetch expansion, reservation, PCIe
  kArrival,     ///< on_arrival: transfer completion, warp wake
  kOtherHooks,  ///< counter halving, throttle pin, coalesce, splinter
  kCheck,       ///< the inner sink (the fuzz oracle)
  kSpanCount
};

/// Host-time attribution inside a real run. Every hook reads the steady
/// clock once and charges the interval since the previous reading to its
/// span. An inner sink, when attached, is called after that reading and its
/// time charged to kCheck by a second reading.
class TimingSink final : public TraceSink {
 public:
  void begin_run(TraceSink* inner) {
    inner_ = inner;
    last_ = Clock::now();
  }

  void on_layout(const AddressSpace& space) override {
    mark(kBuild);
    forward([&](TraceSink& s) { s.on_layout(space); });
  }
  void on_kernel_begin(std::uint32_t launch, const std::string& name) override {
    mark(kLaunch);
    forward([&](TraceSink& s) { s.on_kernel_begin(launch, name); });
  }
  void on_task(std::uint64_t task, const std::vector<Access>& accesses) override {
    mark(kTask);
    forward([&](TraceSink& s) { s.on_task(task, accesses); });
  }
  void on_access(Cycle now, VirtAddr addr, AccessType type, std::uint32_t count,
                 bool device_resident) override {
    mark(kAccess);
    forward([&](TraceSink& s) { s.on_access(now, addr, type, count, device_resident); });
  }
  void on_decision(Cycle now, VirtAddr addr, AccessType type, std::uint32_t post_count,
                   std::uint32_t round_trips, MigrationDecision decision,
                   bool write_forced) override {
    mark(kPolicy);
    if (decision == MigrationDecision::kMigrate) ++migrates;
    forward([&](TraceSink& s) {
      s.on_decision(now, addr, type, post_count, round_trips, decision, write_forced);
    });
  }
  void on_fault_batch(Cycle start, Cycle end, std::size_t blocks) override {
    mark(kFaultBatch);
    fault_blocks += blocks;
    forward([&](TraceSink& s) { s.on_fault_batch(start, end, blocks); });
  }
  void on_device_full(Cycle now) override {
    mark(kEviction);
    forward([&](TraceSink& s) { s.on_device_full(now); });
  }
  void on_eviction(Cycle now, ChunkNum chunk, const std::vector<BlockNum>& victims) override {
    mark(kEviction);
    ++evictions;
    forward([&](TraceSink& s) { s.on_eviction(now, chunk, victims); });
  }
  void on_migration(Cycle now, BlockNum block, bool demand) override {
    mark(kMigration);
    forward([&](TraceSink& s) { s.on_migration(now, block, demand); });
  }
  void on_arrival(Cycle now, BlockNum block) override {
    mark(kArrival);
    forward([&](TraceSink& s) { s.on_arrival(now, block); });
  }
  void on_counter_halving(Cycle now, std::uint64_t total) override {
    mark(kOtherHooks);
    forward([&](TraceSink& s) { s.on_counter_halving(now, total); });
  }
  void on_throttle_pin(Cycle now, BlockNum block, Cycle until) override {
    mark(kOtherHooks);
    forward([&](TraceSink& s) { s.on_throttle_pin(now, block, until); });
  }
  void on_coalesce(Cycle now, ChunkNum c) override {
    mark(kOtherHooks);
    forward([&](TraceSink& s) { s.on_coalesce(now, c); });
  }
  void on_splinter(Cycle now, ChunkNum c, SplinterReason reason) override {
    mark(kOtherHooks);
    forward([&](TraceSink& s) { s.on_splinter(now, c, reason); });
  }

  std::array<std::int64_t, kSpanCount> ns{};       ///< raw interval sums
  std::array<std::uint64_t, kSpanCount> marks{};   ///< intervals per span
  std::uint64_t migrates = 0;
  std::uint64_t fault_blocks = 0;
  std::uint64_t evictions = 0;

 private:
  void mark(Span s) {
    const auto t = Clock::now();
    ns[s] += ns_between(last_, t);
    ++marks[s];
    last_ = t;
  }
  template <class Call>
  void forward(Call&& call) {
    if (inner_ == nullptr) return;
    call(*inner_);
    mark(kCheck);
  }

  TraceSink* inner_ = nullptr;
  Clock::time_point last_{};
};

/// Per-interval cost of the sink itself (virtual call, clock read,
/// bookkeeping), measured by calling a hook back to back. It is subtracted
/// from every interval and reported as trace.hook_share. The minimum over
/// short repeats is taken: other load on the host only ever adds time.
double calibrate_hook_ns() {
  TimingSink probe;
  probe.begin_run(nullptr);
  TraceSink* volatile sink = &probe;
  constexpr int kCalls = 20000;
  double best = std::numeric_limits<double>::max();
  for (int rep = 0; rep < 25; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) sink->on_arrival(0, 0);
    best = std::min(best, static_cast<double>(ns_between(t0, Clock::now())) / kCalls);
  }
  return best;
}

struct SpanMetric {
  Span span;
  const char* share;
  const char* per_op;  ///< nullptr: share only
};

constexpr SpanMetric kSpanMetrics[] = {
    {kBuild, "workloads.build_share", nullptr},
    {kLaunch, "gpu.launch_share", nullptr},
    {kTask, "workloads.task_share", nullptr},
    {kAccess, "access_path.share", "access_path.ns_per_access"},
    {kPolicy, "policy.share", "policy.ns_per_decision"},
    {kFaultBatch, "core.fault_batch_share", "core.ns_per_fault_batch"},
    {kEviction, "mem.eviction_share", "mem.ns_per_eviction"},
    {kMigration, "xfer.migration_share", "xfer.ns_per_migration"},
    {kArrival, "core.arrival_share", "core.ns_per_arrival"},
    {kOtherHooks, "other_hooks_share", nullptr},
    {kCheck, "check.share", nullptr},
};

/// Per-layer metrics of one traced pass: span shares and per-op costs with
/// the sink's own cost taken out, the unattributed rest, and the simulated
/// ratios the spans are driven by.
void report_spans(const TimingSink& sink, double hook_ns, double traced_ms, double untraced_ms,
                  const SimStats& total, Report& rep) {
  const double wall_ns = traced_ms * 1e6;
  double raw = 0.0, hooks = 0.0, shares = 0.0;
  for (const SpanMetric& m : kSpanMetrics) {
    const auto marks = static_cast<double>(sink.marks[m.span]);
    const double net = static_cast<double>(sink.ns[m.span]) - marks * hook_ns;
    raw += static_cast<double>(sink.ns[m.span]);
    hooks += marks * hook_ns;
    shares += net / wall_ns;
    rep.metric(m.share, net / wall_ns, "fraction");
    if (m.per_op == nullptr) continue;
    const double ops = m.span == kEviction ? static_cast<double>(sink.evictions) : marks;
    rep.metric(m.per_op, ratio(net, ops), "ns");
  }
  const double unattributed = (wall_ns - raw) / wall_ns;
  rep.metric("trace.hook_share", hooks / wall_ns, "fraction");
  rep.metric("unattributed_share", unattributed, "fraction");
  const double sum = shares + hooks / wall_ns + unattributed;
  rep.info("attribution_sum", json_number(sum));
  rep.info("hook_ns", json_number(hook_ns));
  rep.op(std::fabs(sum - 1.0) < 0.01 && unattributed > -0.01,
         "spans and unattributed time do not add up to the traced wall");

  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  rep.metric("trace_overhead", ratio(traced_ms, untraced_ms), "ratio");
  rep.metric("policy.decisions", u(sink.marks[kPolicy]), "count");
  rep.metric("policy.migrate_ratio", ratio(u(sink.migrates), u(sink.marks[kPolicy])), "fraction");
  rep.metric("core.faults_per_batch", ratio(u(sink.fault_blocks), u(sink.marks[kFaultBatch])),
             "count");
  rep.metric("mem.thrash_ratio", ratio(u(total.pages_thrashed), u(total.pages_evicted)), "ratio");
  rep.metric("mem.writeback_ratio", ratio(u(total.writeback_pages), u(total.pages_evicted)),
             "fraction");
  rep.metric("xfer.prefetch_ratio",
             ratio(u(total.blocks_prefetched), u(total.blocks_migrated + total.blocks_prefetched)),
             "fraction");
  rep.metric("xfer.h2d_bytes_per_access", ratio(u(total.bytes_h2d), warp_accesses(total)), "B");
  rep.metric("gpu.tlb_hit_rate", ratio(u(total.tlb_hits), u(total.tlb_hits + total.tlb_misses)),
             "fraction");
}

/// Totals of the isolated layer timings over a pass's inputs.
struct Isolated {
  std::int64_t gen_ns = 0, encode_ns = 0, decode_ns = 0, resident_ns = 0;
  std::uint64_t accesses = 0, records = 0, file_bytes = 0, peak_decoded = 0;
  /// Inputs UVMTRB1 cannot hold: the reader refuses a record whose count
  /// runs past the allocated span, which fuzz saturation ramps produce.
  std::uint64_t unencodable = 0;
};

/// Times the layers that can be called on their own over every task of one
/// workload input: task generation (Kernel::gen_task), UVMTRB1 encoding
/// (TraceWriter::append_task) and decoding (TraceReader::read_task), and the
/// driver's resident access path (UvmDriver::access with every block
/// preloaded, so no access faults).
void isolate(Workload& workload, const std::string& path, Isolated& t, Report& rep) {
  AddressSpace space;
  workload.build(space);
  const auto launches = workload.schedule();
  const SimConfig cfg = paper_cfg(PolicyKind::kAdaptive);
  EventQueue queue;
  SimStats stats;
  UvmDriver driver(cfg, space, div_ceil(space.span_end(), kLargePageSize) * kLargePageSize,
                   queue, stats);
  driver.preload_all([](Cycle) {});
  queue.run();
  Cycle now = queue.now();

  std::vector<Access> buf;
  std::int64_t encode_ns = 0;
  std::uint64_t records = 0;
  bool past_span = false;  // a record the reader will refuse, see Isolated
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write " + path);
    TraceWriter writer(os, {workload.name(), 0, 0});
    writer.on_layout(space);
    for (const auto& kernel : launches) {
      writer.begin_launch(kernel->name());
      for (std::uint64_t task = 0; task < kernel->num_tasks(); ++task) {
        buf.clear();
        const auto t0 = Clock::now();
        kernel->gen_task(task, buf);
        const auto t1 = Clock::now();
        t.gen_ns += ns_between(t0, t1);
        if (buf.empty()) continue;
        writer.append_task(buf);
        const auto t2 = Clock::now();
        for (const Access& x : buf) (void)driver.access(0, x.addr, x.type, x.count, ++now);
        encode_ns += ns_between(t1, t2);
        t.resident_ns += ns_between(t2, Clock::now());
        t.accesses += buf.size();
        for (const Access& x : buf) past_span |= x.addr + x.bytes() > space.span_end();
      }
    }
    writer.finalize();
    records = writer.records_written();
  }

  try {
    TraceReader reader(path);
    std::uint64_t decoded = 0;
    const auto t0 = Clock::now();
    for (std::uint32_t l = 0; l < reader.meta().launches.size(); ++l) {
      for (std::uint64_t task = 0; task < reader.meta().launches[l].num_tasks; ++task) {
        buf.clear();
        reader.read_task(l, task, buf);
        decoded += buf.size();
      }
    }
    t.decode_ns += ns_between(t0, Clock::now());
    rep.op(decoded == records, workload.name() + ": decoded a different number of records");
    t.encode_ns += encode_ns;
    t.records += records;
    t.file_bytes += reader.file_bytes();
    t.peak_decoded = std::max(t.peak_decoded, reader.peak_decoded_bytes());
  } catch (const TraceError& e) {
    if (past_span) {
      ++t.unencodable;
    } else {
      rep.op(false, workload.name() + ": UVMTRB1 round trip failed: " + e.what());
    }
  }
  std::filesystem::remove(path);
}

void report_isolated(const Isolated& t, Report& rep) {
  const auto accesses = static_cast<double>(t.accesses);
  const auto records = static_cast<double>(t.records);
  rep.metric("workloads.gen_ns_per_access", ratio(static_cast<double>(t.gen_ns), accesses), "ns");
  rep.metric("trace.encode_ns_per_record", ratio(static_cast<double>(t.encode_ns), records), "ns");
  rep.metric("trace.decode_ns_per_record", ratio(static_cast<double>(t.decode_ns), records), "ns");
  rep.metric("trace.bytes_per_record", ratio(static_cast<double>(t.file_bytes), records), "B");
  rep.metric("trace.peak_decoded_mb", static_cast<double>(t.peak_decoded) / (1024.0 * 1024.0),
             "MB");
  rep.metric("core.resident_access_ns", ratio(static_cast<double>(t.resident_ns), accesses), "ns");
  rep.info("trace_unencodable_inputs", std::to_string(t.unencodable));
}

SimStats sum_stats(const BatchResult& b) {
  SimStats total;
  for (const BatchEntry& e : b.entries) total.accumulate(e.result.stats);
  return total;
}

void trace_sim(const Args& a, Report& rep) {
  const SimPlan plan = make_plan(a);
  (void)set_up(plan);
  require_distinct(plan);
  check_capture(plan, rep);
  double hook_ns = calibrate_hook_ns();

  BatchOptions serial;
  serial.jobs = 1;
  const BatchResult untraced = run_batch(plan.pass, serial);
  const std::vector<SimStats> ref = stats_of(untraced);
  check_runs(untraced, ref, "itself", rep);

  std::vector<RunRequest> observed = plan.pass;
  for (RunRequest& r : observed) r.config.collect_traces = true;
  TimingSink sink;
  BatchOptions timed = serial;
  timed.make_options = [&sink](const RunRequest&, std::size_t) {
    sink.begin_run(nullptr);
    RunOptions opts;
    opts.trace_sink = &sink;
    return opts;
  };
  const BatchResult traced = run_batch(observed, timed);
  check_runs(traced, ref, "the untraced run", rep);
  hook_ns = std::min(hook_ns, calibrate_hook_ns());
  report_spans(sink, hook_ns, traced.wall_ms, untraced.wall_ms, sum_stats(traced), rep);

  Isolated iso;
  for (const auto& [name, params] : plan.inputs) {
    const auto workload = make_workload(name, params);
    isolate(*workload, a.scratch + "/isolate.trb", iso, rep);
  }
  report_isolated(iso, rep);
}

// ------------------------------------------------------------------- fuzz

std::uint64_t fuzz_iterations(const Args& a) { return a.smoke ? 100 : 1000; }

/// The campaign's cases, exactly as run_fuzz generates them when no case is
/// a mutant (FuzzOptions::mutate_every = 0).
std::vector<FuzzCase> make_cases(const Args& a) {
  std::vector<FuzzCase> cases;
  cases.reserve(fuzz_iterations(a));
  for (std::uint64_t i = 0; i < fuzz_iterations(a); ++i) cases.push_back(generate_case(a.seed, i));
  return cases;
}

/// run_fuzz's request for one case, rebuilt so the benchmark can run the
/// same simulation under its own observation: the oracle watches through
/// the sink, so tracing is on and copy-then-execute (which emits no hooks)
/// is off.
RunRequest case_request(const FuzzCase& fc) {
  RunRequest req;
  req.config = fc.config;
  req.config.collect_traces = true;
  req.config.copy_then_execute = false;
  req.oversub = req.config.mem.oversubscription;
  req.trace = fc.trace;
  req.label = fc.label;
  return req;
}

void apply_advice(const FuzzCase& fc, AddressSpace& space) {
  const auto& allocs = space.allocations();
  for (std::size_t i = 0; i < allocs.size() && i < fc.advice.size(); ++i) {
    if (fc.advice[i] != MemAdvice::kNone) space.advise(allocs[i].id, fc.advice[i]);
  }
}

struct CasePass {
  BatchResult batch;
  std::uint64_t divergences = 0;
};

/// One pass over `cases` on run_batch (jobs = 1). With `oracle`, each case
/// is observed by a fresh RefModel, as in run_fuzz; a non-null `timing` sink
/// sits in front of it and forwards every hook.
CasePass run_cases(const std::vector<FuzzCase>& cases, bool oracle, TimingSink* timing) {
  std::vector<RunRequest> requests;
  std::vector<std::unique_ptr<RefModel>> models;
  for (const FuzzCase& fc : cases) {
    requests.push_back(case_request(fc));
    if (oracle) models.push_back(std::make_unique<RefModel>(requests.back().config));
  }
  BatchOptions opts;
  opts.jobs = 1;
  opts.make_options = [&](const RunRequest&, std::size_t i) {
    RefModel* model = oracle ? models[i].get() : nullptr;
    RunOptions ro;
    ro.advice_hook = [&cases, model, i](AddressSpace& space) {
      apply_advice(cases[i], space);
      if (model != nullptr) model->capture_layout(space);
    };
    if (timing != nullptr) {
      timing->begin_run(model);
      ro.trace_sink = timing;
    } else {
      ro.trace_sink = model;
    }
    return ro;
  };
  CasePass out{run_batch(requests, opts), 0};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!out.batch.entries[i].ok()) {
      ++out.divergences;
    } else if (oracle) {
      models[i]->finish();
      if (models[i]->diverged()) ++out.divergences;
    }
  }
  return out;
}

void measure_fuzz(const Args& a, Report& rep) {
  const std::uint64_t n = fuzz_iterations(a);
  std::vector<FuzzCase> cases;
  // The previous repeat's cases are freed first, so every repeat starts
  // from the same heap state.
  const double setup_s = setup_seconds(a, [&] {
    cases.clear();
    cases = make_cases(a);
  });
  // The campaign's simulated work: the same cases run once without the
  // oracle (observation does not change SimStats).
  const CasePass counted = run_cases(cases, false, nullptr);
  rep.ops(n, counted.divergences, "a case failed to run without the oracle");
  std::vector<double> case_accesses(n);
  double campaign_accesses = 0.0, campaign_faults = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    case_accesses[i] = warp_accesses(counted.batch.entries[i].result.stats);
    campaign_accesses += case_accesses[i];
    campaign_faults += static_cast<double>(counted.batch.entries[i].result.stats.far_faults);
  }

  std::vector<Clock::time_point> done;
  FuzzOptions fo;
  fo.seed = a.seed;
  fo.iterations = n;
  fo.jobs = 1;
  fo.shrink = false;
  fo.mutate_every = 0;
  fo.progress = [&done](std::uint64_t, std::uint64_t) { done.push_back(Clock::now()); };

  // Quantiles are taken per campaign and their median reported, so the
  // samples kept (and the peak RSS) do not grow with the number of campaigns.
  std::vector<double> campaign_s, access_rate, fault_rate, ns_p50, ns_p90, ns_per_access;
  run_for(a.seconds, [&] {
    done.clear();
    done.reserve(n);
    const auto t0 = Clock::now();
    const FuzzReport report = run_fuzz(fo);
    const double wall = secs_since(t0);
    rep.ops(n, report.divergences,
            report.findings.empty() ? "fuzz divergence" : report.findings.front().message);
    rep.op(done.size() == n, "run_fuzz reported progress for a different number of cases");
    // Case 0's interval also covers case generation; it is left out.
    ns_per_access.clear();
    for (std::size_t i = 1; i < done.size() && i < n; ++i) {
      if (case_accesses[i] == 0.0) continue;
      ns_per_access.push_back(static_cast<double>(ns_between(done[i - 1], done[i])) /
                              case_accesses[i]);
    }
    campaign_s.push_back(wall);
    access_rate.push_back(campaign_accesses / wall);
    fault_rate.push_back(campaign_faults / wall);
    ns_p50.push_back(quantile(ns_per_access, 0.5));
    ns_p90.push_back(quantile(ns_per_access, 0.9));
  });
  rep.info("passes", std::to_string(campaign_s.size()));
  rep.info("runs", std::to_string(campaign_s.size() * (n - 1)));
  rep.info("job_wall_s", json_number(median(campaign_s)));

  rep.metric("setup_s", setup_s, "s");
  rep.metric("accesses_per_sec", median(access_rate), "1/s");
  rep.metric("faults_per_sec", median(fault_rate), "1/s");
  rep.metric("run_ns_per_access_p50", median(ns_p50), "ns");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.info("run_ns_per_access_p90", json_number(median(ns_p90)));
}

void trace_fuzz(const Args& a, Report& rep) {
  const std::vector<FuzzCase> cases = make_cases(a);
  double hook_ns = calibrate_hook_ns();
  const CasePass untraced = run_cases(cases, true, nullptr);
  rep.ops(cases.size(), untraced.divergences, "fuzz divergence in the untraced pass");
  TimingSink sink;
  const CasePass traced = run_cases(cases, true, &sink);
  rep.ops(cases.size(), traced.divergences, "fuzz divergence in the traced pass");
  const std::vector<SimStats> ref = stats_of(untraced.batch);
  check_runs(traced.batch, ref, "the untraced run", rep);
  hook_ns = std::min(hook_ns, calibrate_hook_ns());
  report_spans(sink, hook_ns, traced.batch.wall_ms, untraced.batch.wall_ms,
               sum_stats(traced.batch), rep);

  Isolated iso;
  for (const FuzzCase& fc : cases) {
    TraceWorkload workload(*fc.trace);
    isolate(workload, a.scratch + "/isolate.trb", iso, rep);
  }
  report_isolated(iso, rep);
}

// ------------------------------------------------------------------- main

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
      } else if (arg == "--scratch") {
        a.scratch = value();
      } else if (arg == "--seed") {
        const std::string v = value();
        std::size_t used = 0;
        a.seed = std::stoull(v, &used, 0);
        if (used != v.size()) throw UsageError("bad --seed " + v);
      } else if (arg == "--seconds") {
        const std::string v = value();
        std::size_t used = 0;
        a.seconds = std::stod(v, &used);
        if (used != v.size() || !(a.seconds >= 0.0 && a.seconds <= 3600.0)) {
          throw UsageError("bad --seconds " + v);
        }
      } else if (arg == "--traced") {
        a.traced = true;
      } else if (arg == "--smoke") {
        a.smoke = true;
      } else {
        throw UsageError("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {  // std::stoull / std::stod
      throw UsageError("bad value for " + arg);
    }
  }
  if (a.workload != "paper-grid" && a.workload != "thrash" && a.workload != "replay" &&
      a.workload != "fuzz") {
    throw UsageError("--workload must be paper-grid, thrash, replay or fuzz");
  }
  if (a.scratch.empty() || !std::filesystem::is_directory(a.scratch)) {
    throw UsageError("--scratch must name an existing directory");
  }
  if (a.smoke) a.seconds = 0.0;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    Report rep;
    if (a.workload == "fuzz") {
      a.traced ? trace_fuzz(a, rep) : measure_fuzz(a, rep);
    } else {
      a.traced ? trace_sim(a, rep) : measure_sim(a, rep);
    }
    rep.print(a);
    return 0;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "uvmsim_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uvmsim_bench: %s\n", e.what());
    return 1;
  }
}
