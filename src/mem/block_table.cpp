#include "mem/block_table.hpp"

#include <limits>

#include "check/check.hpp"
#include "mem/eviction_index.hpp"

namespace uvmsim {

BlockTable::BlockTable(const AddressSpace& space) : space_(space) {
  const BlockNum nblocks = space.total_blocks();
  state_.assign(nblocks, static_cast<std::uint8_t>(Residence::kHost));
  last_access_.assign(nblocks, 0);
  round_trips_.assign(nblocks, 0);
  // An empty address space has zero chunks — the old `chunk_of_block(0) + 1`
  // expression manufactured a phantom chunk with no mapped blocks.
  chunks_.resize(nblocks == 0 ? 0 : chunk_of_block(nblocks - 1) + 1);
  chunk_nblocks_.resize(chunks_.size());
  occupancy_.assign(chunks_.size(), 0);
  coalesced_.assign(chunks_.size(), 0);
  for (ChunkNum c = 0; c < chunks_.size(); ++c) {
    chunk_nblocks_[c] = space.chunk_num_blocks(c);
  }
}

void BlockTable::mark_in_flight(BlockNum b) {
  UVM_CHECK(residence(b) == Residence::kHost,
            "BlockTable: in-flight transition requires host residence; block=" << b
                << " state=" << to_cstr(residence(b)) << " round_trips=" << round_trips_[b]);
  state_[b] = static_cast<std::uint8_t>(
      (state_[b] & ~kResidenceMask) | static_cast<std::uint8_t>(Residence::kInFlight));
  occupancy_[chunk_of_block(b)] |= leaf_bit(b);
}

void BlockTable::mark_resident(BlockNum b, Cycle now) {
  UVM_CHECK(residence(b) == Residence::kInFlight,
            "BlockTable: resident transition requires in-flight state; block=" << b
                << " state=" << to_cstr(residence(b)) << " now=" << now);
  std::uint8_t st = state_[b];
  st = static_cast<std::uint8_t>((st & ~kResidenceMask) |
                                 static_cast<std::uint8_t>(Residence::kDevice));
  // A write that raced the migration makes the block arrive dirty.
  if ((st & kDirtyOnArrivalBit) != 0)
    st |= kDirtyBit;
  else
    st &= static_cast<std::uint8_t>(~kDirtyBit);
  st &= static_cast<std::uint8_t>(~kDirtyOnArrivalBit);
  state_[b] = st;
  ChunkResidency& c = chunks_[chunk_of_block(b)];
  if (c.resident_blocks == 0) c.migrated_at = now;
  ++c.resident_blocks;
  if (index_ != nullptr) index_->on_resident(b);
}

bool BlockTable::mark_evicted(BlockNum b) {
  UVM_CHECK(residence(b) == Residence::kDevice,
            "BlockTable: eviction requires device residence; block=" << b
                << " state=" << to_cstr(residence(b)) << " dirty=" << dirty(b));
  UVM_CHECK(coalesced_[chunk_of_block(b)] == 0,
            "BlockTable: evicting block " << b << " from coalesced chunk "
                << chunk_of_block(b) << " without splintering first");
  const std::uint8_t st = state_[b];
  const bool was_dirty = (st & kDirtyBit) != 0;
  UVM_CHECK(round_trips_[b] != std::numeric_limits<std::uint32_t>::max(),
            "BlockTable: eviction count of block " << b
                << " would wrap, reviving stale TLB entries of its epoch");
  state_[b] = static_cast<std::uint8_t>(
      (st & ~(kResidenceMask | kDirtyBit)) | static_cast<std::uint8_t>(Residence::kHost));
  ++round_trips_[b];
  occupancy_[chunk_of_block(b)] &= ~leaf_bit(b);
  ChunkResidency& c = chunks_[chunk_of_block(b)];
  UVM_CHECK(c.resident_blocks > 0,
            "BlockTable: chunk " << chunk_of_block(b)
                << " resident count underflow evicting block " << b);
  --c.resident_blocks;
  if (index_ != nullptr) index_->on_evicted(b);
  return was_dirty;
}

bool BlockTable::try_coalesce(ChunkNum c) {
  if (coalesced_[c] != 0) return false;
  if (!chunk_fully_resident(c)) return false;
  if (chunks_[c].written_ever) return false;  // read-mostly gate
  coalesced_[c] = 1;
  ++num_coalesced_;
  return true;
}

void BlockTable::splinter(ChunkNum c) {
  UVM_CHECK(coalesced_[c] != 0, "BlockTable: splinter on split chunk " << c);
  coalesced_[c] = 0;
  --num_coalesced_;
}

}  // namespace uvmsim
