#include "check/streamgen.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "sim/types.hpp"

namespace uvmsim {
namespace {

// Mapped span of one allocation as the generator sees it. Bases come from a
// probe AddressSpace so they match TraceWorkload::build() exactly.
struct Span {
  VirtAddr base = 0;
  std::uint64_t user_size = 0;
};

struct Layout {
  std::vector<Span> spans;
  std::uint64_t footprint = 0;
  std::uint64_t total_user = 0;
};

[[nodiscard]] VirtAddr pick_addr(const Layout& lay, Rng& rng) {
  const Span& s = lay.spans[rng.below(lay.spans.size())];
  return s.base + rng.below(s.user_size);
}

// Address of the i-th 64 KB block of the concatenated user ranges, wrapping.
// The walk is what thrash loops iterate: a deterministic block ring spanning
// every allocation.
[[nodiscard]] VirtAddr block_ring_addr(const Layout& lay, std::uint64_t i) {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> blocks_per(lay.spans.size());
  for (std::size_t k = 0; k < lay.spans.size(); ++k) {
    blocks_per[k] = (lay.spans[k].user_size + kBasicBlockSize - 1) / kBasicBlockSize;
    total += blocks_per[k];
  }
  std::uint64_t r = i % total;
  for (std::size_t k = 0; k < lay.spans.size(); ++k) {
    if (r < blocks_per[k]) return lay.spans[k].base + r * kBasicBlockSize;
    r -= blocks_per[k];
  }
  return lay.spans[0].base;  // unreachable
}

[[nodiscard]] std::uint64_t ring_blocks(const Layout& lay) {
  std::uint64_t total = 0;
  for (const Span& s : lay.spans)
    total += (s.user_size + kBasicBlockSize - 1) / kBasicBlockSize;
  return total;
}

[[nodiscard]] std::uint16_t small_gap(Rng& rng) {
  // Mostly back-to-back; occasionally a long stall that splits fault batches.
  if (rng.chance(0.02)) return static_cast<std::uint16_t>(rng.between(4000, 60000));
  return static_cast<std::uint16_t>(rng.below(24));
}

void push(RecordedLaunch& launch, VirtAddr addr, AccessType type, std::uint16_t count,
          std::uint16_t gap) {
  launch.records.push_back(TraceRecord{addr, count, type, gap});
}

// Patterns. Each appends `budget` records to `launch`.

void gen_uniform(RecordedLaunch& launch, const Layout& lay, Rng& rng, std::uint64_t budget) {
  for (std::uint64_t i = 0; i < budget; ++i) {
    const auto type = rng.chance(0.3) ? AccessType::kWrite : AccessType::kRead;
    const auto count = static_cast<std::uint16_t>(1ull << rng.below(6));
    push(launch, pick_addr(lay, rng), type, count, small_gap(rng));
  }
}

// Round-robin over a block working set slightly larger than device capacity:
// the canonical thrash loop. Guarantees steady-state eviction pressure.
void gen_thrash(RecordedLaunch& launch, const Layout& lay, std::uint64_t capacity_blocks,
                Rng& rng, std::uint64_t budget) {
  const std::uint64_t ring = ring_blocks(lay);
  std::uint64_t set = capacity_blocks + rng.between(1, 8);
  // Not std::clamp: a one-block ring (one 64 KB allocation) puts the upper
  // bound below the lower one, which clamp forbids.
  set = std::min(std::max<std::uint64_t>(set, 2), ring);
  const std::uint64_t start = rng.below(ring);
  for (std::uint64_t i = 0; i < budget; ++i) {
    const VirtAddr a = block_ring_addr(lay, start + i % set);
    const auto type = rng.chance(0.15) ? AccessType::kWrite : AccessType::kRead;
    push(launch, a, type, static_cast<std::uint16_t>(rng.between(1, 8)), small_gap(rng));
  }
}

// A few hot blocks absorb most accesses (zipf), the rest scatter cold —
// stresses threshold schemes around ts and LFU victim ordering.
void gen_hotcold(RecordedLaunch& launch, const Layout& lay, Rng& rng, std::uint64_t budget) {
  const std::uint64_t ring = ring_blocks(lay);
  const std::uint64_t hot_n = std::min<std::uint64_t>(rng.between(2, 4), ring);
  std::vector<VirtAddr> hot(hot_n);
  for (auto& h : hot) h = block_ring_addr(lay, rng.below(ring));
  for (std::uint64_t i = 0; i < budget; ++i) {
    VirtAddr a;
    std::uint16_t count;
    if (rng.chance(0.85)) {
      a = hot[rng.zipf(hot_n, 1.2)] + rng.below(kBasicBlockSize);
      count = static_cast<std::uint16_t>(rng.between(1, 64));
    } else {
      a = pick_addr(lay, rng);
      count = 1;
    }
    const auto type = rng.chance(0.25) ? AccessType::kWrite : AccessType::kRead;
    push(launch, a, type, count, small_gap(rng));
  }
}

// All-write storm into one or two blocks: exercises the write-migrate rule,
// write_forced classification and dirty writeback accounting.
void gen_write_burst(RecordedLaunch& launch, const Layout& lay, Rng& rng,
                     std::uint64_t budget) {
  const std::uint64_t ring = ring_blocks(lay);
  const VirtAddr b0 = block_ring_addr(lay, rng.below(ring));
  const VirtAddr b1 = block_ring_addr(lay, rng.below(ring));
  for (std::uint64_t i = 0; i < budget; ++i) {
    const VirtAddr base = rng.chance(0.7) ? b0 : b1;
    push(launch, base + rng.below(kBasicBlockSize), AccessType::kWrite,
         static_cast<std::uint16_t>(rng.between(1, 64)), small_gap(rng));
  }
}

// Giant per-record counts against a couple of counter units: drives the
// access-count field into saturation so halve_all() fires (immediately for
// small counter_count_bits configs).
void gen_saturation_ramp(RecordedLaunch& launch, const Layout& lay, Rng& rng,
                         std::uint64_t budget) {
  const std::uint64_t ring = ring_blocks(lay);
  const std::uint64_t targets = std::min<std::uint64_t>(rng.between(1, 3), ring);
  std::vector<VirtAddr> t(targets);
  for (auto& a : t) a = block_ring_addr(lay, rng.below(ring));
  for (std::uint64_t i = 0; i < budget; ++i) {
    const VirtAddr a = t[rng.below(targets)];
    const auto count = static_cast<std::uint16_t>(rng.chance(0.5) ? 65535 : rng.between(200, 4096));
    const auto type = rng.chance(0.1) ? AccessType::kWrite : AccessType::kRead;
    push(launch, a, type, count, small_gap(rng));
  }
}

// Two 2 MB chunks alternating: maximal eviction ping-pong, fastest route to
// round-trip accumulation (and trip-field halving at small trip widths).
void gen_pingpong(RecordedLaunch& launch, const Layout& lay, Rng& rng, std::uint64_t budget) {
  const std::uint64_t ring = ring_blocks(lay);
  const VirtAddr a0 = block_ring_addr(lay, rng.below(ring));
  const VirtAddr a1 = block_ring_addr(lay, rng.below(ring));
  for (std::uint64_t i = 0; i < budget; ++i) {
    const VirtAddr base = (i & 1) ? a1 : a0;
    const auto type = rng.chance(0.2) ? AccessType::kWrite : AccessType::kRead;
    push(launch, base + rng.below(kBasicBlockSize), type,
         static_cast<std::uint16_t>(rng.between(1, 4)), small_gap(rng));
  }
}

// Sequential whole-chunk sweeps over a block ring wider than device
// capacity: chunks fill block-by-block (every completion is a coalesce
// candidate under mem.coalescing), then steady eviction pressure forces
// atomic coalesced evictions — or eviction splinters when
// mem.splinter_on_evict — as the ring wraps. A rare write seeds the
// write-share splinter path too.
void gen_coalesce_churn(RecordedLaunch& launch, const Layout& lay,
                        std::uint64_t capacity_blocks, Rng& rng, std::uint64_t budget) {
  const std::uint64_t ring = ring_blocks(lay);
  std::uint64_t set =
      capacity_blocks + rng.between(kBlocksPerLargePage / 2, 2 * kBlocksPerLargePage);
  set = std::min(std::max<std::uint64_t>(set, 2), ring);  // see gen_thrash
  const std::uint64_t start = rng.below(ring);
  for (std::uint64_t i = 0; i < budget; ++i) {
    const VirtAddr a = block_ring_addr(lay, start + i % set);
    const auto type = rng.chance(0.02) ? AccessType::kWrite : AccessType::kRead;
    push(launch, a, type, static_cast<std::uint16_t>(rng.between(1, 4)), small_gap(rng));
  }
}

// Fill-then-write: a read sweep makes a few chunks fully resident (and
// coalesced when mem.coalescing), then a write burst into the same chunks
// storms the write-share splinter path back to 64 KB mappings.
void gen_splinter_storm(RecordedLaunch& launch, const Layout& lay, Rng& rng,
                        std::uint64_t budget) {
  const std::uint64_t ring = ring_blocks(lay);
  const std::uint64_t set =
      std::min<std::uint64_t>(ring, kBlocksPerLargePage * rng.between(1, 3));
  const std::uint64_t start = rng.below(ring);
  const std::uint64_t fill = budget - budget / 3;
  for (std::uint64_t i = 0; i < fill; ++i) {
    const VirtAddr a = block_ring_addr(lay, start + i % set);
    push(launch, a, AccessType::kRead, static_cast<std::uint16_t>(rng.between(1, 8)),
         small_gap(rng));
  }
  for (std::uint64_t i = fill; i < budget; ++i) {
    const VirtAddr a = block_ring_addr(lay, start + rng.below(set));
    push(launch, a + rng.below(kBasicBlockSize), AccessType::kWrite,
         static_cast<std::uint16_t>(rng.between(1, 16)), small_gap(rng));
  }
}

constexpr std::array<const char*, 8> kPatternNames = {
    "uniform",  "thrash",   "hot-cold",       "write-burst",
    "sat-ramp", "ping-pong", "coalesce-churn", "splinter-storm"};

void randomize_config(SimConfig& cfg, Rng& rng) {
  // Policy.
  cfg.policy.policy = static_cast<PolicyKind>(rng.below(4));
  constexpr std::array<std::uint32_t, 6> kThresholds = {1, 2, 4, 8, 16, 32};
  cfg.policy.static_threshold = kThresholds[rng.below(kThresholds.size())];
  constexpr std::array<std::uint64_t, 5> kPenalties = {1, 2, 4, 8, 1024};
  cfg.policy.migration_penalty = kPenalties[rng.below(kPenalties.size())];
  cfg.policy.write_triggers_migration = rng.chance(0.8);
  cfg.policy.adaptive_write_migrates = rng.chance(0.3);
  cfg.policy.historic_counters_override = rng.chance(0.1);

  // Memory machinery.
  cfg.mem.eviction = static_cast<EvictionKind>(rng.below(3));
  cfg.mem.prefetcher = static_cast<PrefetcherKind>(rng.below(4));
  cfg.mem.eviction_granularity = rng.chance(0.5) ? kLargePageSize : kBasicBlockSize;
  constexpr std::array<Cycle, 5> kProtect = {0, 0, 2000, 65536, 1000000};
  cfg.mem.eviction_protect_cycles = kProtect[rng.below(kProtect.size())];
  cfg.mem.counter_granularity = rng.chance(0.8) ? kBasicBlockSize : kPageSize;
  // Weight toward the hardware 27-bit split, but visit narrow widths often
  // enough that counter halving is routine rather than unreachable.
  constexpr std::array<std::uint32_t, 8> kCountBitsChoices = {27, 27, 27, 16, 12, 10, 8, 30};
  cfg.mem.counter_count_bits = kCountBitsChoices[rng.below(kCountBitsChoices.size())];

  // Huge-page management (docs/GRANULARITY.md): a third of the cases run
  // with coalescing, half of those splintering coalesced victims instead of
  // evicting them atomically. Both draws are unconditional so the rng stream
  // keeps its shape regardless of the first outcome.
  const bool coalescing = rng.chance(0.35);
  const bool splinter_on_evict = rng.chance(0.5);
  cfg.mem.coalescing = coalescing;
  cfg.mem.splinter_on_evict = coalescing && splinter_on_evict;

  // Fault engine batching.
  constexpr std::array<Cycle, 3> kWindows = {0, 500, 3000};
  cfg.xfer.fault_batch_window = kWindows[rng.below(kWindows.size())];
  constexpr std::array<std::uint32_t, 3> kBatchMax = {4, 64, 256};
  cfg.xfer.fault_batch_max = kBatchMax[rng.below(kBatchMax.size())];

  // Mitigation + audit ride along on a minority of cases.
  if (rng.chance(0.2)) {
    cfg.mitigation.enabled = true;
    cfg.mitigation.detect_faults = static_cast<std::uint32_t>(rng.between(1, 4));
    constexpr std::array<Cycle, 3> kCooldowns = {5000, 50000, 2000000};
    cfg.mitigation.pin_cooldown = kCooldowns[rng.below(kCooldowns.size())];
  }
  if (rng.chance(0.1)) {
    cfg.audit.enabled = true;
    cfg.audit.interval_events = rng.chance(0.5) ? 256 : 1024;
    cfg.audit.fail_fast = true;
  }

  cfg.rng_seed = rng.next();
  cfg.collect_traces = true;      // the model observes through the sink
  cfg.copy_then_execute = false;  // preload emits no hooks; never generated
}

}  // namespace

std::size_t pattern_count() noexcept { return kPatternNames.size(); }

const char* pattern_name(std::size_t i) noexcept {
  return i < kPatternNames.size() ? kPatternNames[i] : "?";
}

int pattern_index(const std::string& name) noexcept {
  for (std::size_t i = 0; i < kPatternNames.size(); ++i) {
    if (name == kPatternNames[i]) return static_cast<int>(i);
  }
  return -1;
}

FuzzCase generate_case(std::uint64_t master_seed, std::uint64_t index,
                       const StreamGenOptions& opts) {
  std::uint64_t sm = master_seed + 0x9e3779b97f4a7c15ull * (index + 1);
  const std::uint64_t case_seed = splitmix64(sm);
  Rng rng(case_seed);

  FuzzCase fc;
  fc.seed = case_seed;
  randomize_config(fc.config, rng);
  if (opts.force_coalescing >= 0) {
    fc.config.mem.coalescing = opts.force_coalescing != 0;
    if (!fc.config.mem.coalescing) fc.config.mem.splinter_on_evict = false;
  }

  // Allocations: 1-3 spans from a menu of awkward sizes (partial chunks,
  // sub-2MB tails, pow2 and non-pow2 block counts).
  constexpr std::array<std::uint64_t, 12> kSizes = {
      64ull << 10,   128ull << 10,  192ull << 10,  256ull << 10,
      448ull << 10,  512ull << 10,  1ull << 20,    (1ull << 20) + (64ull << 10),
      2ull << 20,    (2ull << 20) + (192ull << 10), 3ull << 20,   4ull << 20};
  const std::uint64_t num_allocs = rng.between(1, 3);
  auto trace = std::make_shared<RecordedTrace>();
  AddressSpace probe;
  Layout lay;
  for (std::uint64_t i = 0; i < num_allocs; ++i) {
    const std::uint64_t size = kSizes[rng.below(kSizes.size())];
    trace->allocations.emplace_back("fuzz" + std::to_string(i), size);
    probe.allocate("fuzz" + std::to_string(i), size);
  }
  for (const Allocation& a : probe.allocations()) {
    lay.spans.push_back(Span{a.base, a.user_size});
    lay.total_user += a.user_size;
  }
  lay.footprint = probe.footprint_bytes();

  // Capacity: either ratio-derived (the paper's methodology) or a fixed
  // small device. Both regimes — undersubscribed included — must be fuzzed.
  if (rng.chance(0.5)) {
    fc.config.mem.oversubscription = 1.05 + rng.uniform() * 1.45;
  } else {
    fc.config.mem.oversubscription = 0.0;
    constexpr std::array<std::uint64_t, 5> kDeviceBlocks = {32, 40, 48, 64, 96};
    fc.config.mem.device_capacity_bytes =
        kDeviceBlocks[rng.below(kDeviceBlocks.size())] * kBasicBlockSize;
  }
  const std::uint64_t capacity_blocks =
      derived_capacity_bytes(fc.config, lay.footprint) / kBasicBlockSize;

  // Placement advice on a minority of allocations.
  fc.advice.assign(num_allocs, MemAdvice::kNone);
  for (auto& adv : fc.advice) {
    if (rng.chance(0.08))
      adv = MemAdvice::kPreferredHost;
    else if (rng.chance(0.07))
      adv = MemAdvice::kAccessedBy;
  }

  // Stream: 1-3 launches, each one hostile pattern.
  const std::uint64_t total = rng.between(opts.min_records, opts.max_records);
  const std::uint64_t num_launches = rng.between(1, 3);
  std::string label;
  for (std::uint64_t l = 0; l < num_launches; ++l) {
    RecordedLaunch launch;
    launch.kernel = "fuzzk" + std::to_string(l);
    const std::uint64_t budget =
        l + 1 == num_launches ? total - total / num_launches * l : total / num_launches;
    const std::uint64_t pat = opts.force_pattern >= 0
                                  ? static_cast<std::uint64_t>(opts.force_pattern)
                                  : rng.below(kPatternNames.size());
    switch (pat) {
      case 0: gen_uniform(launch, lay, rng, budget); break;
      case 1: gen_thrash(launch, lay, capacity_blocks, rng, budget); break;
      case 2: gen_hotcold(launch, lay, rng, budget); break;
      case 3: gen_write_burst(launch, lay, rng, budget); break;
      case 4: gen_saturation_ramp(launch, lay, rng, budget); break;
      case 5: gen_pingpong(launch, lay, rng, budget); break;
      case 6: gen_coalesce_churn(launch, lay, capacity_blocks, rng, budget); break;
      default: gen_splinter_storm(launch, lay, rng, budget); break;
    }
    if (!label.empty()) label += '+';
    label += kPatternNames[pat];
    trace->launches.push_back(std::move(launch));
  }
  fc.trace = std::move(trace);
  fc.label = "seed" + std::to_string(index) + ":" + label;
  fc.config.validate();
  return fc;
}

RecordedTrace mutate_trace(const RecordedTrace& trace, Rng& rng) {
  RecordedTrace out = trace;
  if (out.total_records() == 0) return out;
  const std::uint64_t ops = rng.between(1, 4);
  for (std::uint64_t op = 0; op < ops; ++op) {
    // Pick a random non-empty launch.
    std::vector<std::size_t> nonempty;
    for (std::size_t l = 0; l < out.launches.size(); ++l)
      if (!out.launches[l].records.empty()) nonempty.push_back(l);
    if (nonempty.empty()) break;
    auto& recs = out.launches[nonempty[rng.below(nonempty.size())]].records;
    const std::size_t i = rng.below(recs.size());
    switch (rng.below(5)) {
      case 0:  // delete (but never the last record of the whole trace)
        if (out.total_records() > 1) recs.erase(recs.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1:  // duplicate in place
        recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(i), recs[i]);
        break;
      case 2:  // flip access type
        recs[i].type =
            recs[i].type == AccessType::kWrite ? AccessType::kRead : AccessType::kWrite;
        break;
      case 3:  // re-roll the count (includes saturating values)
        recs[i].count = static_cast<std::uint16_t>(
            rng.chance(0.2) ? 65535 : (1ull << rng.below(8)));
        break;
      default:  // splice in the address of another record (stays mapped)
        recs[i].addr = recs[rng.below(recs.size())].addr;
        break;
    }
  }
  return out;
}

}  // namespace uvmsim
