// Mapping-granularity tests (docs/GRANULARITY.md): the BlockTable coalesce /
// splinter state machine and its gates, randomized property histories
// (membership, O(1) counter vs scan, the read-mostly invariant), atomic vs
// splintered victim emission through the EvictionManager — including
// fast-vs-reference parity while chunks are coalesced — and the auditor's
// granularity pass.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/audit.hpp"
#include "check/check.hpp"
#include "mem/access_counters.hpp"
#include "mem/address_space.hpp"
#include "mem/block_table.hpp"
#include "mem/eviction.hpp"
#include "sim/rng.hpp"

namespace uvmsim {
namespace {

void fill_chunk(BlockTable& t, ChunkNum c, Cycle now) {
  const BlockNum first = first_block_of_chunk(c);
  for (BlockNum b = first; b < first + t.chunk_num_blocks(c); ++b) {
    if (t.residence(b) != Residence::kHost) continue;
    t.mark_in_flight(b);
    t.mark_resident(b, now);
  }
}

TEST(Granularity, CoalesceGatesAndTransitions) {
  AddressSpace space;
  space.allocate("a", 2 * kLargePageSize + 3 * kBasicBlockSize);
  BlockTable t(space);
  ASSERT_EQ(t.num_chunks(), 3u);
  EXPECT_EQ(t.coalesced_chunks(), 0u);
  EXPECT_EQ(t.granularity(0), MappingGranularity::kSplit);

  // Gate: not fully resident.
  t.mark_in_flight(0);
  t.mark_resident(0, 1);
  EXPECT_FALSE(t.try_coalesce(0));

  // Full and clean: promotes exactly once.
  fill_chunk(t, 0, 2);
  EXPECT_TRUE(t.try_coalesce(0));
  EXPECT_TRUE(t.chunk_coalesced(0));
  EXPECT_EQ(t.granularity(0), MappingGranularity::kCoalesced);
  EXPECT_EQ(t.coalesced_chunks(), 1u);
  EXPECT_FALSE(t.try_coalesce(0)) << "already coalesced";

  // Gate: written-ever chunks never coalesce (read-mostly heuristic).
  fill_chunk(t, 1, 3);
  t.touch(first_block_of_chunk(1), AccessType::kWrite, 4);
  EXPECT_FALSE(t.try_coalesce(1));

  // The partially-mapped tail chunk coalesces at its mapped count.
  fill_chunk(t, 2, 5);
  EXPECT_TRUE(t.try_coalesce(2));
  EXPECT_EQ(t.coalesced_chunks(), 2u);

  // Splinter demotes and re-arms the promote path.
  t.splinter(0);
  EXPECT_FALSE(t.chunk_coalesced(0));
  EXPECT_EQ(t.coalesced_chunks(), 1u);
  EXPECT_TRUE(t.try_coalesce(0));
}

TEST(Granularity, EvictingCoalescedBlockWithoutSplinterThrows) {
  AddressSpace space;
  space.allocate("a", kLargePageSize);
  BlockTable t(space);
  fill_chunk(t, 0, 1);
  ASSERT_TRUE(t.try_coalesce(0));
  EXPECT_THROW(t.mark_evicted(0), CheckFailure);
  t.splinter(0);
  t.mark_evicted(0);  // legal after the demotion
  EXPECT_EQ(t.chunk(0).resident_blocks, kBlocksPerLargePage - 1);
}

TEST(Granularity, SplinterOnSplitChunkThrows) {
  AddressSpace space;
  space.allocate("a", kLargePageSize);
  BlockTable t(space);
  EXPECT_THROW(t.splinter(0), CheckFailure);
}

// Randomized property history: arbitrary interleavings of migration,
// eviction (splinter-first), writes and coalesce attempts must preserve
//   * coalesced => fully resident and never written,
//   * the O(1) coalesced-chunk counter == a full scan,
//   * for_each_resident_block membership == a plain residency scan.
TEST(Granularity, RandomizedHistoryPreservesInvariants) {
  AddressSpace space;
  space.allocate("a", 5 * kLargePageSize + 7 * kBasicBlockSize);
  BlockTable t(space);
  Rng rng(0xC0A1E5CEull);
  Cycle now = 1;
  // Only mapped blocks participate: the VA span's 2 MB padding leaves the
  // tail chunk with unmapped trailing blocks the driver never migrates.
  const auto mapped = [&](BlockNum b) {
    const ChunkNum c = chunk_of_block(b);
    return b < first_block_of_chunk(c) + t.chunk_num_blocks(c);
  };
  for (int step = 0; step < 4000; ++step) {
    now += rng.below(3);
    const BlockNum b = rng.below(t.num_blocks());
    if (!mapped(b)) continue;
    const ChunkNum c = chunk_of_block(b);
    switch (rng.below(6)) {
      case 0:
      case 1:
        if (t.residence(b) == Residence::kHost) {
          t.mark_in_flight(b);
          t.mark_resident(b, now);
        }
        break;
      case 2:
        if (t.residence(b) == Residence::kDevice) {
          const AccessType type = rng.chance(0.3) ? AccessType::kWrite : AccessType::kRead;
          if (type == AccessType::kWrite && t.chunk_coalesced(c)) t.splinter(c);
          t.touch(b, type, now);
        }
        break;
      case 3:
        if (t.residence(b) == Residence::kDevice) {
          if (t.chunk_coalesced(c)) t.splinter(c);
          t.mark_evicted(b);
        }
        break;
      case 4:
        t.try_coalesce(c);
        break;
      default:
        fill_chunk(t, c, now);
        t.try_coalesce(c);
        break;
    }

    if (step % 64 != 0) continue;
    std::uint64_t coalesced = 0;
    for (ChunkNum cc = 0; cc < t.num_chunks(); ++cc) {
      const std::uint32_t mapped_blocks = t.chunk_num_blocks(cc);
      std::vector<BlockNum> scan;
      const BlockNum first = first_block_of_chunk(cc);
      for (BlockNum bb = first; bb < first + mapped_blocks; ++bb) {
        if (t.residence(bb) == Residence::kDevice) scan.push_back(bb);
      }
      std::vector<BlockNum> visited;
      t.for_each_resident_block(cc, [&](BlockNum bb) { visited.push_back(bb); });
      ASSERT_EQ(visited, scan) << "chunk " << cc << " at step " << step;
      if (t.chunk_coalesced(cc)) {
        ++coalesced;
        ASSERT_TRUE(t.chunk_fully_resident(cc)) << "chunk " << cc << " at step " << step;
        ASSERT_FALSE(t.chunk(cc).written_ever) << "chunk " << cc << " at step " << step;
      }
    }
    ASSERT_EQ(t.coalesced_chunks(), coalesced) << "step " << step;
  }
}

/// (table, counters, manager) wiring with the incremental index attached —
/// what the driver uses — for emission tests under coalescing.
struct EmissionRig {
  explicit EmissionRig(bool splinter_on_evict, std::uint64_t granularity,
                       EvictionKind kind = EvictionKind::kLru) {
    space.allocate("a", 4 * kLargePageSize);
    table = std::make_unique<BlockTable>(space);
    counters = std::make_unique<AccessCounterTable>(
        div_ceil(space.span_end(), kBasicBlockSize), kBasicBlockShift);
    mgr = std::make_unique<EvictionManager>(kind, granularity, splinter_on_evict);
    mgr->attach_index(*table, *counters);
  }
  AddressSpace space;
  std::unique_ptr<BlockTable> table;
  std::unique_ptr<AccessCounterTable> counters;
  std::unique_ptr<EvictionManager> mgr;
};

TEST(Granularity, CoalescedVictimEvictsAtomicallyAt64kGranularity) {
  // 64 KB eviction granularity normally evicts one block — but a coalesced
  // victim chunk has a single 2 MB mapping, so the whole chunk must go.
  EmissionRig rig(/*splinter_on_evict=*/false, kBasicBlockSize);
  fill_chunk(*rig.table, 0, 10);
  fill_chunk(*rig.table, 1, 20);
  ASSERT_TRUE(rig.table->try_coalesce(0));
  const VictimQuery q{2, true, 100, 0};
  const auto fast = rig.mgr->select_victims(*rig.table, *rig.counters, q);
  const auto ref = select_victims_reference(*rig.mgr, *rig.table, *rig.counters, q);
  EXPECT_EQ(fast, ref);
  ASSERT_EQ(fast.size(), kBlocksPerLargePage) << "atomic whole-chunk emission";
  for (const BlockNum v : fast) EXPECT_EQ(chunk_of_block(v), 0u);
}

TEST(Granularity, SplinterOnEvictKeepsPerBlockEmission) {
  // With mem.splinter_on_evict the driver splinters the victim chunk first
  // and evicts at the configured granularity; emission ignores coalescing.
  EmissionRig rig(/*splinter_on_evict=*/true, kBasicBlockSize);
  fill_chunk(*rig.table, 0, 10);
  fill_chunk(*rig.table, 1, 20);
  ASSERT_TRUE(rig.table->try_coalesce(0));
  const VictimQuery q{2, true, 100, 0};
  const auto fast = rig.mgr->select_victims(*rig.table, *rig.counters, q);
  EXPECT_EQ(fast, select_victims_reference(*rig.mgr, *rig.table, *rig.counters, q));
  ASSERT_EQ(fast.size(), 1u) << "per-block emission preserved";
  EXPECT_EQ(chunk_of_block(fast.front()), 0u);
}

TEST(Granularity, VictimSelectionOrderUnchangedByCoalescing) {
  // Coalescing must not perturb WHICH chunk is chosen — only how much of it
  // is emitted. The LRU pick with chunk 0 coalesced equals the pick without.
  for (const bool coalesce : {false, true}) {
    EmissionRig rig(/*splinter_on_evict=*/false, kLargePageSize);
    fill_chunk(*rig.table, 0, 10);
    fill_chunk(*rig.table, 1, 20);
    fill_chunk(*rig.table, 2, 30);
    if (coalesce) {
      ASSERT_TRUE(rig.table->try_coalesce(0));
    }
    const auto victims =
        rig.mgr->select_victims(*rig.table, *rig.counters, VictimQuery{3, true, 100, 0});
    ASSERT_FALSE(victims.empty());
    EXPECT_EQ(chunk_of_block(victims.front()), 0u) << "coalesce=" << coalesce;
    EXPECT_EQ(victims.size(), kBlocksPerLargePage);
  }
}

// Randomized parity + aggregate conservation under coalescing churn: the
// incremental index (check_eviction_index's subject) must keep fast ==
// reference while chunks coalesce, splinter and evict atomically.
TEST(Granularity, RandomizedCoalesceChurnKeepsIndexParity) {
  for (const bool splinter_on_evict : {false, true}) {
    EmissionRig rig(splinter_on_evict, kBasicBlockSize, EvictionKind::kLfu);
    BlockTable& t = *rig.table;
    Rng rng(splinter_on_evict ? 0xBEEF1ull : 0xBEEF2ull);
    Cycle now = 1;
    InvariantAuditor auditor(AuditConfig{});
    for (int step = 0; step < 600; ++step) {
      now += 1 + rng.below(4);
      const BlockNum b = rng.below(t.num_blocks());
      const ChunkNum c = chunk_of_block(b);
      switch (rng.below(5)) {
        case 0:
        case 1:
          if (t.residence(b) == Residence::kHost) {
            t.mark_in_flight(b);
            t.mark_resident(b, now);
            t.try_coalesce(c);
          }
          break;
        case 2:
          if (t.residence(b) == Residence::kDevice) t.touch(b, AccessType::kRead, now);
          rig.counters->record_access(addr_of_block(b),
                                      static_cast<std::uint32_t>(rng.between(1, 32)));
          break;
        case 3: {
          fill_chunk(t, c, now);
          t.try_coalesce(c);
          break;
        }
        default: {  // one full driver-style eviction round
          const VictimQuery q{c, true, now, 0};
          const auto fast = rig.mgr->select_victims(t, *rig.counters, q);
          const auto ref = select_victims_reference(*rig.mgr, t, *rig.counters, q);
          ASSERT_EQ(fast, ref) << "step " << step;
          if (fast.empty()) break;
          const ChunkNum vc = chunk_of_block(fast.front());
          if (t.chunk_coalesced(vc)) t.splinter(vc);
          for (const BlockNum v : fast) {
            t.mark_evicted(v);
            rig.counters->record_round_trip(addr_of_block(v));
          }
          break;
        }
      }
      if (step % 50 == 0) {
        AuditScope s;
        s.table = &t;
        s.counters = rig.counters.get();
        s.eviction = rig.mgr.get();
        const AuditReport r = auditor.audit_now(s);
        ASSERT_TRUE(r.clean()) << "step " << step << ": " << r.violations.front();
      }
    }
  }
}

TEST(Granularity, AuditorFlagsGranularityViolations) {
  AddressSpace space;
  space.allocate("a", kLargePageSize);
  BlockTable t(space);
  fill_chunk(t, 0, 1);
  ASSERT_TRUE(t.try_coalesce(0));
  InvariantAuditor auditor(AuditConfig{});
  AuditScope s;
  s.table = &t;
  ASSERT_TRUE(auditor.audit_now(s).clean());

  // Write to a coalesced chunk without splintering: the read-mostly
  // invariant breaks and the granularity pass must say so.
  t.touch(0, AccessType::kWrite, 2);
  const AuditReport r = auditor.audit_now(s);
  ASSERT_FALSE(r.clean());
  EXPECT_NE(r.violations.front().find("granularity"), std::string::npos);
}

}  // namespace
}  // namespace uvmsim
