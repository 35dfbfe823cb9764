#include "trace/replay_workload.hpp"

#include <utility>

namespace uvmsim {

namespace {

/// One recorded launch: task `t` replays the `t`-th non-empty task stream
/// the original run handed out. Kernels with zero recorded tasks replay the
/// original's degenerate empty-kernel path (they still consume a launch
/// slot and its overhead, which byte-identical replay requires).
class TrbReplayKernel final : public Kernel {
 public:
  TrbReplayKernel(std::shared_ptr<TraceReader> reader, std::uint32_t launch)
      : reader_(std::move(reader)), launch_(launch) {}

  [[nodiscard]] std::string name() const override {
    return reader_->meta().launches[launch_].kernel;
  }
  [[nodiscard]] std::uint64_t num_tasks() const override {
    return reader_->meta().launches[launch_].num_tasks;
  }
  void gen_task(std::uint64_t task, std::vector<Access>& out) const override {
    reader_->read_task(launch_, task, out);
  }

 private:
  std::shared_ptr<TraceReader> reader_;
  std::uint32_t launch_;
};

}  // namespace

ReplayWorkload::ReplayWorkload(std::shared_ptr<TraceReader> reader)
    : reader_(std::move(reader)) {
  if (reader_ == nullptr) throw TraceError("ReplayWorkload: null trace reader");
  if (reader_->meta().allocations.empty())
    throw TraceError("ReplayWorkload: trace declares no allocations");
  if (reader_->meta().launches.empty())
    throw TraceError("ReplayWorkload: trace has no launches");
}

std::string ReplayWorkload::name() const {
  const std::string& recorded = reader_->meta().workload;
  return "replay:" + (recorded.empty() ? "<unknown>" : recorded);
}

void ReplayWorkload::build(AddressSpace& space) {
  for (const TraceAllocInfo& a : reader_->meta().allocations)
    (void)space.allocate(a.name, a.user_size);
}

std::vector<std::shared_ptr<const Kernel>> ReplayWorkload::schedule() const {
  std::vector<std::shared_ptr<const Kernel>> seq;
  seq.reserve(reader_->meta().launches.size());
  for (std::uint32_t l = 0; l < reader_->meta().launches.size(); ++l)
    seq.push_back(std::make_shared<TrbReplayKernel>(reader_, l));
  return seq;
}

std::unique_ptr<Workload> make_replay_workload(const WorkloadParams& p) {
  if (p.trace_file.empty())
    throw TraceError("replay workload: WorkloadParams::trace_file is not set");
  return std::make_unique<ReplayWorkload>(std::make_shared<TraceReader>(p.trace_file));
}

}  // namespace uvmsim
