// RecordedTrace, a whole trace in memory (allocation layout plus per-launch
// access records), and TraceWorkload, which replays it. The fuzzer, the
// tournament and the benchmark build this form; on disk it is UVMTRB1
// (trace/trace_binary.hpp: write_trb and read_trb_as_recorded). Replaying
// one trace under different driver configurations compares policies on
// literally identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workloads/workload.hpp"

namespace uvmsim {

/// Records per task: TraceWorkload slices each launch into tasks of this
/// many records, and write_trb frames them the same way.
inline constexpr std::size_t kRecordsPerTask = 256;

struct RecordedLaunch {
  std::string kernel;
  std::vector<Access> records;

  [[nodiscard]] bool operator==(const RecordedLaunch&) const = default;
};

struct RecordedTrace {
  std::vector<std::pair<std::string, std::uint64_t>> allocations;  ///< name, user size
  std::vector<RecordedLaunch> launches;

  [[nodiscard]] std::uint64_t total_records() const noexcept;
};

/// Workload replaying a recorded trace: identical allocation layout, one
/// kernel launch per non-empty recorded launch, accesses in recorded order
/// chunked into kRecordsPerTask-record tasks. NOTE: replay order across
/// warps is not bit-identical to the original interleaving (tasks
/// redistribute), but the per-launch access multiset and sequence are.
class TraceWorkload final : public Workload {
 public:
  explicit TraceWorkload(RecordedTrace trace) : trace_(std::move(trace)) {}

  [[nodiscard]] std::string name() const override { return "trace-replay"; }
  void build(AddressSpace& space) override;
  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override;

 private:
  RecordedTrace trace_;
};

}  // namespace uvmsim
