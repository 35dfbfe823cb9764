// Umbrella header for the uvmsim public API.
//
// uvmsim is a discrete-event simulator of CPU-GPU Unified Virtual Memory
// reproducing "Adaptive Page Migration for Irregular Data-intensive
// Applications under GPU Memory Oversubscription" (IPDPS 2020).
//
// Typical usage:
//
//   #include <uvmsim/uvmsim.hpp>
//
//   uvmsim::SimConfig cfg;                      // Table I defaults
//   cfg.policy.policy = uvmsim::PolicyKind::kAdaptive;
//   cfg.mem.eviction = uvmsim::EvictionKind::kLfu;
//   auto result = uvmsim::run_workload("sssp", cfg, /*oversub=*/1.25);
//   std::cout << result.stats.report();
#pragma once

#include "core/simulator.hpp"
#include "core/uvm_driver.hpp"
#include "gpu/l2_cache.hpp"
#include "mem/access_counters.hpp"
#include "mem/address_space.hpp"
#include "mem/block_table.hpp"
#include "mem/device_memory.hpp"
#include "mem/eviction.hpp"
#include "mem/eviction_index.hpp"
#include "mitigation/thrash_throttle.hpp"
#include "multigpu/multi_gpu.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics_recorder.hpp"
#include "obs/registry.hpp"
#include "policy/adaptive_policies.hpp"
#include "policy/migration_policy.hpp"
#include "policy/policy_registry.hpp"
#include "prefetch/prefetcher.hpp"
#include "report/figures.hpp"
#include "report/run_csv.hpp"
#include "report/run_json.hpp"
#include "report/table.hpp"
#include "report/variance.hpp"
#include "sim/config.hpp"
#include "sim/config_parse.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "sim/thread_pool.hpp"
#include "sim/types.hpp"
#include "trace/replay.hpp"
#include "trace/replay_workload.hpp"
#include "trace/trace.hpp"
#include "trace/trace_binary.hpp"
#include "workloads/graph_gen.hpp"
#include "workloads/input_cache.hpp"
#include "workloads/workload.hpp"
#include "xfer/bandwidth.hpp"
#include "xfer/pcie.hpp"
