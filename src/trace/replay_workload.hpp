// ReplayWorkload: drives a UVMTRB1 trace (trace/trace_binary.hpp) back
// through the simulator as a Workload. Because UVMTRB1 records whole task
// streams in warp hand-out order, the replayed run re-issues byte-identical
// task streams and therefore reproduces the recorded run's SimStats exactly
// (under the same SimConfig). Registered in the workload registry under the
// slug "replay"; select it with WorkloadParams::trace_file.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "trace/trace_binary.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

class ReplayWorkload final : public Workload {
 public:
  /// Takes a reader whose trace has at least one launch and one allocation;
  /// throws TraceError otherwise (CLIs map that to exit code 2).
  explicit ReplayWorkload(std::shared_ptr<TraceReader> reader);

  [[nodiscard]] std::string name() const override;
  void build(AddressSpace& space) override;
  [[nodiscard]] std::vector<std::shared_ptr<const Kernel>> schedule() const override;

  [[nodiscard]] const TraceMeta& meta() const noexcept { return reader_->meta(); }
  [[nodiscard]] const std::shared_ptr<TraceReader>& reader() const noexcept { return reader_; }

 private:
  std::shared_ptr<TraceReader> reader_;
};

/// Registry factory for the "replay" slug: opens WorkloadParams::trace_file
/// as a ReplayWorkload. Throws TraceError on a missing or malformed file.
[[nodiscard]] std::unique_ptr<Workload> make_replay_workload(const WorkloadParams& p);

}  // namespace uvmsim
