// Legacy UVMTRC1 traces: RecordedTrace (allocation layout plus per-launch
// access records), its file format, and TraceWorkload, which replays it.
// Replaying one trace under different driver configurations compares
// policies on literally identical inputs. Runs are recorded with TraceWriter
// (trace/trace_binary.hpp); read_trb_as_recorded converts to this form.
//
// Binary format (little-endian, version 1):
//   magic "UVMTRC1\0"
//   u32 num_allocations; per allocation: u32 name_len, bytes, u64 size
//   u32 num_launches;    per launch: u32 name_len, bytes, u64 num_records
//   records: u64 addr, u16 count, u8 type, u8 pad, u16 gap  (12 bytes)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace uvmsim {

struct TraceRecord {
  VirtAddr addr = 0;
  std::uint16_t count = 1;
  AccessType type = AccessType::kRead;
  std::uint16_t gap = 0;
};

struct RecordedLaunch {
  std::string kernel;
  std::vector<TraceRecord> records;
};

struct RecordedTrace {
  std::vector<std::pair<std::string, std::uint64_t>> allocations;  ///< name, user size
  std::vector<RecordedLaunch> launches;

  [[nodiscard]] std::uint64_t total_records() const noexcept;

  void save(std::ostream& os) const;
  [[nodiscard]] static RecordedTrace load(std::istream& is);  ///< throws on bad input
};

/// Workload replaying a recorded trace: identical allocation layout, one
/// kernel launch per recorded launch, accesses in recorded order chunked
/// into tasks. NOTE: replay order across warps is not bit-identical to the
/// original interleaving (tasks redistribute), but the per-launch access
/// multiset and sequence are.
class TraceWorkload final : public Workload {
 public:
  explicit TraceWorkload(RecordedTrace trace) : trace_(std::move(trace)) {}

  [[nodiscard]] std::string name() const override { return "trace-replay"; }
  [[nodiscard]] bool irregular() const override { return false; }
  void build(AddressSpace& space) override;
  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override;

 private:
  RecordedTrace trace_;
};

}  // namespace uvmsim
