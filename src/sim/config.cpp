#include "sim/config.hpp"

#include <cmath>
#include <sstream>

#include "check/check.hpp"

namespace uvmsim {

std::string to_string(EvictionKind k) {
  switch (k) {
    case EvictionKind::kLru: return "LRU";
    case EvictionKind::kLfu: return "LFU";
    case EvictionKind::kTree: return "tree";
  }
  return "?";
}

std::string to_string(PrefetcherKind k) {
  switch (k) {
    case PrefetcherKind::kNone: return "none";
    case PrefetcherKind::kSequential: return "sequential";
    case PrefetcherKind::kRandom: return "random";
    case PrefetcherKind::kTree: return "tree";
  }
  return "?";
}

std::string to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kFirstTouch: return "first-touch (Baseline/Disabled)";
    case PolicyKind::kStaticAlways: return "static threshold (Always)";
    case PolicyKind::kStaticOversub: return "static threshold after oversub (Oversub)";
    case PolicyKind::kAdaptive: return "dynamic threshold (Adaptive)";
  }
  return "?";
}

const char* policy_slug(PolicyKind k) {
  switch (k) {
    case PolicyKind::kFirstTouch: return "baseline";
    case PolicyKind::kStaticAlways: return "always";
    case PolicyKind::kStaticOversub: return "oversub";
    case PolicyKind::kAdaptive: return "adaptive";
  }
  UVM_CHECK(false, "policy_slug: out-of-domain PolicyKind "
                       << static_cast<unsigned>(k));
  return "";  // unreachable; UVM_CHECK throws
}

Cycle SimConfig::far_fault_cycles() const noexcept {
  return static_cast<Cycle>(std::llround(xfer.far_fault_latency_us * 1e3 *
                                         gpu.core_clock_ghz));
}

Cycle SimConfig::launch_overhead_cycles() const noexcept {
  return static_cast<Cycle>(std::llround(kernel_launch_overhead_us * 1e3 *
                                         gpu.core_clock_ghz));
}

double SimConfig::pcie_bytes_per_cycle() const noexcept {
  // GB/s / (Gcycle/s) = bytes/cycle.
  return xfer.pcie_bandwidth_gbps / gpu.core_clock_ghz;
}

double SimConfig::dram_bytes_per_cycle() const noexcept {
  return gpu.dram_bandwidth_gbps / gpu.core_clock_ghz;
}

void SimConfig::validate() const {
  // Each message names its field by its configuration key (--keys).
  auto fail = [](const std::string& what) { throw std::invalid_argument("config: " + what); };
  // NaN and +-inf fail every double check.
  auto positive = [&](double v, const char* key) {
    if (!(std::isfinite(v) && v > 0)) fail(std::string(key) + " must be finite and > 0");
  };
  auto non_negative = [&](double v, const char* key) {
    if (!(std::isfinite(v) && v >= 0)) fail(std::string(key) + " must be finite and >= 0");
  };
  if (gpu.num_sms == 0) fail("gpu.num_sms must be > 0");
  if (gpu.warps_per_sm == 0) fail("gpu.warps_per_sm must be > 0");
  positive(gpu.core_clock_ghz, "gpu.core_clock_ghz");
  positive(gpu.dram_bandwidth_gbps, "gpu.dram_bandwidth_gbps");
  positive(xfer.pcie_bandwidth_gbps, "xfer.pcie_bandwidth_gbps");
  positive(xfer.host_memory_bandwidth_gbps, "xfer.host_memory_bandwidth_gbps");
  non_negative(xfer.far_fault_latency_us, "xfer.far_fault_latency_us");
  non_negative(kernel_launch_overhead_us, "kernel_launch_overhead_us");
  // <= 0 means "use device_capacity_bytes"; only a non-finite value is wrong.
  if (!std::isfinite(mem.oversubscription)) fail("mem.oversubscription must be finite");
  if (xfer.fault_batch_max == 0) fail("xfer.fault_batch_max must be > 0");
  if (mem.device_capacity_bytes < kLargePageSize)
    fail("mem.device_capacity_bytes must hold at least one 2MB large page");
  if (mem.device_capacity_bytes % kBasicBlockSize != 0)
    fail("mem.device_capacity_bytes must be a multiple of the 64KB basic block");
  if (mem.eviction_granularity != kLargePageSize &&
      mem.eviction_granularity != kBasicBlockSize)
    fail("mem.eviction_granularity must be 2MB or 64KB");
  if (mem.counter_granularity != kBasicBlockSize &&
      mem.counter_granularity != kPageSize)
    fail("mem.counter_granularity must be 64KB or 4KB");
  if (mem.counter_count_bits < 8 || mem.counter_count_bits > 30)
    fail("mem.counter_count_bits must be in [8, 30]");
  if (policy.static_threshold == 0) fail("policy.static_threshold (ts) must be >= 1");
  if (policy.migration_penalty == 0) fail("policy.migration_penalty (p) must be >= 1");
  if (audit.interval_events == 0) fail("audit.interval_events must be >= 1");
}

SimConfig scheme_config(PolicyKind policy) {
  SimConfig cfg;
  cfg.policy.policy = policy;
  cfg.mem.eviction =
      policy == PolicyKind::kFirstTouch ? EvictionKind::kLru : EvictionKind::kLfu;
  return cfg;
}

std::string describe(const SimConfig& cfg) {
  std::ostringstream os;
  os << "Simulator               uvmsim (GPGPU-Sim UVM Smart equivalent)\n"
     << "GPU Architecture        Pascal-like, " << cfg.gpu.num_sms << " SMs @ "
     << cfg.gpu.core_clock_ghz * 1e3 << " MHz, " << cfg.gpu.warps_per_sm
     << " warp contexts/SM\n"
     << "Page Size               " << kPageSize / 1024 << " KB\n"
     << "Basic Block             " << kBasicBlockSize / 1024 << " KB\n"
     << "Page Table Walk Latency " << cfg.gpu.page_walk_latency << " core cycles\n"
     << "CPU-GPU Interconnect    PCIe 3.0 16x, " << cfg.xfer.pcie_bandwidth_gbps
     << " GB/s, " << cfg.xfer.pcie_latency << " core cycles latency\n"
     << "DRAM Latency            " << cfg.gpu.dram_latency << " core cycles\n"
     << "Remote Zero-copy Latency " << cfg.xfer.remote_access_latency
     << " core cycles\n"
     << "Device Capacity         " << (cfg.mem.device_capacity_bytes >> 20)
     << " MB\n"
     << "Eviction Granularity    " << (cfg.mem.eviction_granularity >> 10)
     << " KB\n"
     << "Page Replacement Policy " << to_string(cfg.mem.eviction) << "\n"
     << "Far-fault Handling      " << cfg.xfer.far_fault_latency_us << " us ("
     << cfg.far_fault_cycles() << " cycles)\n"
     << "Hardware Prefetcher     " << to_string(cfg.mem.prefetcher) << "\n"
     << "Migration Policy        "
     << (cfg.policy.slug.empty() ? to_string(cfg.policy.policy)
                                 : cfg.policy.slug + " (registry policy)")
     << "\n"
     << "Static Access Threshold ts = " << cfg.policy.static_threshold << "\n"
     << "Migration Penalty       p = " << cfg.policy.migration_penalty << "\n"
     << "Counter Granularity     " << (cfg.mem.counter_granularity >> 10)
     << " KB\n";
  return os.str();
}

}  // namespace uvmsim
