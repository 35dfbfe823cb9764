// uvmsim CLI: run any workload x policy x oversubscription combination from
// the command line and print the result statistics.
//
//   uvmsim --workload sssp --policy adaptive --oversub 1.25 --ts 8 -p 8
//   uvmsim --workload fdtd --policy baseline --scale 0.5 --eviction lru
//   uvmsim --workload bfs --record bfs.trb        # capture the task trace
//   uvmsim --replay bfs.trb --policy adaptive     # re-drive it elsewhere
//   uvmsim --workload ra --oversub 1.25 --metrics ra_metrics.csv
//   uvmsim --list
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <uvmsim/uvmsim.hpp>

namespace {

using namespace uvmsim;

void usage() {
  std::printf(
      "usage: uvmsim [options]\n"
      "  --workload NAME    a workload from --list (default sssp)\n"
      "  --policies         list registered migration policies and exit\n"
      "  --scale F          workload footprint scale (default 0.25)\n"
      "  --seed N           workload RNG seed\n"
      "  --iterations N     override workload iteration count\n"
      "  --graph NAME       bfs/sssp input structure: powerlaw|road\n"
      "  --config           print the resolved configuration (Table I style)\n"
      "  --record FILE      capture the task trace to FILE (binary UVMTRB1;\n"
      "                     replays byte-identically, see docs/TRACES.md)\n"
      "  --replay FILE      replay a captured UVMTRB1 trace instead of a\n"
      "                     workload\n"
      "  --metrics FILE     write the per-interval time series of every\n"
      "                     registered metric (delta + cumulative) to FILE\n"
      "  --metrics-interval N  metrics sampling interval in cycles (default 100000)\n"
      "  --chrome-trace FILE  write a Chrome trace-event JSON of the run\n"
      "                     (open in chrome://tracing or ui.perfetto.dev)\n"
      "  --set K=V          set any SimConfig key (repeatable; see --keys)\n"
      "  --config-file F    load key=value settings from a file\n"
      "  --keys             list every settable configuration key\n"
      "  --json             print the result as JSON instead of text\n"
      "  --classify         print the per-allocation hot/cold classification\n"
      "  --list             list available workloads\n"
      "\n"
      "Shorthands, each for one key; with --set and --config-file they share\n"
      "one parser, and the last write of a key wins:\n"
      "  --policy NAME      policy: any registered policy (default baseline);\n"
      "                     see --policies\n"
      "  --eviction NAME    mem.eviction: lru|lfu|tree (default: lru for\n"
      "                     baseline, lfu otherwise)\n"
      "  --prefetcher NAME  mem.prefetcher: tree|sequential|random|none\n"
      "                     (default tree)\n"
      "  --oversub F        mem.oversubscription: working-set/capacity factor;\n"
      "                     0 = fits (default 0)\n"
      "  --capacity-mb N    mem.device_capacity_bytes = N MB (ignored when\n"
      "                     oversubscribed)\n"
      "  --ts N             policy.static_threshold (default 8)\n"
      "  -p / --penalty N   policy.migration_penalty (default 8)\n"
      "  --l2               gpu.l2.enabled = true: the L2 cache model\n"
      "  --audit            audit.enabled = true: the invariant auditor\n"
      "                     (docs/INVARIANTS.md)\n"
      "  --mitigation       mitigation.enabled = true: nvidia-uvm-style thrash\n"
      "                     throttling\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "sssp";
  SimConfig cfg;
  WorkloadParams params;
  params.scale = 0.25;
  bool eviction_named = false;  // by a shorthand, --set or a config-file line
  auto note = [&](std::string_view key) {
    if (key == "mem.eviction") eviction_named = true;
  };
  bool show_config = false;
  std::string record_path, replay_path;
  std::string metrics_path, chrome_trace_path;
  Cycle metrics_interval = 100000;
  bool json_output = false;
  bool classify = false;
  // Shorthands, --set and --config-file write through the one key table, and
  // validate() runs after the last flag; a rejection exits 2 naming its key.
  auto configure = [](auto write) {
    try {
      write();
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict numeric operands: a malformed number aborts instead of being
    // atof'd to 0 and silently running the wrong experiment.
    auto next_number = [&](auto& out, auto parse) {
      const char* v = next();
      if (!parse(v, out)) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", arg.c_str(), v);
        std::exit(2);
      }
    };
    auto set = [&](const char* key, const std::string& value) {
      configure([&] { note(apply_config_setting(cfg, key, value)); });
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--list") {
      for (const auto& n : workload_names()) std::printf("%s\n", n.c_str());
      for (const auto& n : extra_workload_names()) std::printf("%s (extra)\n", n.c_str());
      return 0;
    } else if (arg == "--workload" || arg == "-w") {
      workload = next();
    } else if (arg == "--policy") {
      set("policy", next());
    } else if (arg == "--policies") {
      for (const PolicyInfo& info : PolicyRegistry::instance().entries()) {
        std::printf("%-10s %s\n", info.slug.c_str(), info.summary.c_str());
      }
      return 0;
    } else if (arg == "--eviction") {
      set("mem.eviction", next());
    } else if (arg == "--prefetcher") {
      set("mem.prefetcher", next());
    } else if (arg == "--oversub") {
      set("mem.oversubscription", next());
    } else if (arg == "--capacity-mb") {
      set("mem.device_capacity_bytes", std::string(next()) + "MB");
    } else if (arg == "--scale") {
      next_number(params.scale, parse_double);
    } else if (arg == "--ts") {
      set("policy.static_threshold", next());
    } else if (arg == "-p" || arg == "--penalty") {
      set("policy.migration_penalty", next());
    } else if (arg == "--seed") {
      next_number(params.seed, parse_u64);
    } else if (arg == "--iterations") {
      next_number(params.iterations, parse_u32);
    } else if (arg == "--graph") {
      params.graph = next();
    } else if (arg == "--config") {
      show_config = true;
    } else if (arg == "--record") {
      record_path = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--metrics-interval") {
      next_number(metrics_interval, parse_u64);
      if (metrics_interval == 0) {
        std::fprintf(stderr, "invalid value for --metrics-interval: must be > 0\n");
        return 2;
      }
    } else if (arg == "--chrome-trace") {
      chrome_trace_path = next();
    } else if (arg == "--mitigation") {
      set("mitigation.enabled", "true");
    } else if (arg == "--audit") {
      set("audit.enabled", "true");
    } else if (arg == "--l2") {
      set("gpu.l2.enabled", "true");
    } else if (arg == "--set") {
      configure([&] { note(apply_config_setting(cfg, next())); });
    } else if (arg == "--config-file") {
      std::ifstream f(next());
      if (!f) {
        std::fprintf(stderr, "cannot open config file\n");
        return 2;
      }
      std::vector<std::string_view> keys;
      configure([&] { load_config_stream(cfg, f, &keys); });
      for (const std::string_view key : keys) note(key);
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--classify") {
      classify = true;
    } else if (arg == "--keys") {
      for (const auto& k : config_keys()) std::printf("%s\n", k.c_str());
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  // Paper convention: Baseline runs stock LRU; counter-based schemes LFU.
  if (!eviction_named && cfg.policy.resolved_slug() != "baseline") {
    cfg.mem.eviction = EvictionKind::kLfu;
  }
  configure([&] { cfg.validate(); });

  if (show_config) std::printf("%s\n", describe(cfg).c_str());

  if (!record_path.empty() && !replay_path.empty()) {
    std::fprintf(stderr, "--record and --replay are mutually exclusive\n");
    return 2;
  }

  try {
    // Resolve the workload: named generator or trace replay.
    std::unique_ptr<Workload> wl;
    if (!replay_path.empty()) {
      params.trace_file = replay_path;
      wl = make_workload("replay", params);
      const TraceMeta& meta = dynamic_cast<const ReplayWorkload&>(*wl).meta();
      // Report under the recorded slug so a replayed run's JSON is
      // byte-comparable with the recording run's.
      workload = meta.workload;
      const std::uint64_t here = config_digest(cfg);
      if (meta.config_digest != 0 && meta.config_digest != here) {
        std::fprintf(stderr,
                     "note: trace was recorded under a different configuration "
                     "(digest %016llx, current %016llx)\n",
                     static_cast<unsigned long long>(meta.config_digest),
                     static_cast<unsigned long long>(here));
      }
    } else {
      try {
        wl = make_workload(workload, params);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr, "unknown workload '%s'; see --list\n", workload.c_str());
        return 2;
      }
    }

    obs::MetricsRecorder metrics;
    std::ofstream record_out;
    std::unique_ptr<TraceWriter> writer;
    if (!record_path.empty()) {
      record_out.open(record_path, std::ios::binary | std::ios::trunc);
      if (!record_out) {
        std::fprintf(stderr, "cannot open %s for writing\n", record_path.c_str());
        return 2;
      }
      TraceWriter::Provenance prov;
      prov.workload = workload;
      prov.seed = params.seed;
      prov.config_digest = config_digest(cfg);
      writer = std::make_unique<TraceWriter>(record_out, std::move(prov));
      cfg.collect_traces = true;
    }
    if (!chrome_trace_path.empty()) cfg.collect_traces = true;
    obs::ChromeTraceWriter chrome(cfg);

    // Compose the requested observation sinks onto one trace stream.
    MultiSink multi;
    TraceSink* sink = nullptr;
    if (writer) sink = writer.get();
    if (!chrome_trace_path.empty()) {
      if (sink != nullptr) {
        multi.add(sink);
        multi.add(&chrome);
        sink = &multi;
      } else {
        sink = &chrome;
      }
    }

    Simulator sim(cfg);
    RunOptions opts;
    opts.trace_sink = sink;
    if (!metrics_path.empty()) {
      opts.metrics = &metrics;
      opts.metrics_interval = metrics_interval;
    }
    const RunResult r = sim.run(*wl, opts);

    if (writer) {
      writer->finalize();
      record_out.close();
      if (!record_out) {
        std::fprintf(stderr, "error: short write to %s\n", record_path.c_str());
        return 1;
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      metrics.write_csv(out);
    }
    if (!chrome_trace_path.empty()) {
      std::ofstream out(chrome_trace_path);
      chrome.write(out);
    }
    if (json_output) {
      // Pure JSON on stdout, no file notices: scripts cmp record vs replay
      // output and parse it.
      std::ostringstream os;
      write_run_json(os, workload, cfg, cfg.mem.oversubscription, r);
      std::printf("%s", os.str().c_str());
      return 0;
    }
    if (writer) {
      std::printf("trace:      %llu records in %llu tasks -> %s\n",
                  static_cast<unsigned long long>(writer->records_written()),
                  static_cast<unsigned long long>(writer->tasks_written()),
                  record_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::printf("metrics:    %zu samples -> %s\n", metrics.samples().size(),
                  metrics_path.c_str());
    }
    if (!chrome_trace_path.empty()) {
      std::printf("chrome:     %zu events -> %s (chrome://tracing, ui.perfetto.dev)\n",
                  chrome.event_count(), chrome_trace_path.c_str());
    }
    std::printf("workload:   %s (scale %.2f, footprint %.1f MB, capacity %.1f MB)\n",
                workload.c_str(), params.scale,
                static_cast<double>(r.footprint_bytes) / (1 << 20),
                static_cast<double>(r.capacity_bytes) / (1 << 20));
    std::printf("policy:     %s\n", cfg.policy.slug.empty()
                                        ? to_string(cfg.policy.policy).c_str()
                                        : cfg.policy.slug.c_str());
    std::printf("kernel:     %.3f ms (%llu cycles over %zu launches)\n",
                r.kernel_ms(cfg.gpu.core_clock_ghz),
                static_cast<unsigned long long>(r.stats.kernel_cycles), r.kernels.size());
    std::printf("%s", r.stats.report().c_str());
    if (classify) {
      std::printf("\nper-allocation classification (driver access counters):\n%s",
                  format_profiles(r.allocations).c_str());
    }
  } catch (const TraceError& e) {
    // Malformed / truncated / corrupted trace input: usage-grade failure.
    std::fprintf(stderr, "trace error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
