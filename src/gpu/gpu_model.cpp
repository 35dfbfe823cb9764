#include "gpu/gpu_model.hpp"

#include <stdexcept>

#include "check/check.hpp"

namespace uvmsim {

GpuModel::GpuModel(const SimConfig& cfg, EventQueue& queue, UvmDriver& driver, SimStats& stats)
    : cfg_(cfg), queue_(queue), driver_(driver), stats_(stats) {
  stepper_ = queue_.register_warp_stepper(&GpuModel::step_warp_thunk, this);
  const std::uint32_t total = cfg.total_warps();
  warps_.resize(total);
  for (std::uint32_t w = 0; w < total; ++w) warps_[w].sm = w % cfg.gpu.num_sms;
  sm_next_issue_.assign(cfg.gpu.num_sms, 0);
  tlbs_.reserve(cfg.gpu.num_sms);
  for (std::uint32_t s = 0; s < cfg.gpu.num_sms; ++s) tlbs_.emplace_back(cfg.gpu.tlb_entries_per_sm);

  driver_.set_warp_waker(&GpuModel::wake_warp_thunk, this);
  // The TLBs need no eviction hook (their entries carry the block's
  // eviction count as an epoch); the L2, when modelled, drops victim lines.
  if (cfg.gpu.l2.enabled) {
    l2_ = std::make_unique<L2Cache>(cfg.gpu.l2);
    driver_.set_eviction_hook(&GpuModel::invalidate_l2_thunk, this);
  }
}

void GpuModel::wake_warp_thunk(void* ctx, WarpId w, Cycle ready) {
  static_cast<GpuModel*>(ctx)->wake_warp(w, ready);
}

void GpuModel::invalidate_l2_thunk(void* ctx, std::span<const BlockNum> victims) {
  L2Cache& l2 = *static_cast<GpuModel*>(ctx)->l2_;
  for (const BlockNum b : victims) l2.invalidate_block(b);
}

bool GpuModel::refill(WarpCtx& warp) {
  warp.buf.clear();
  warp.pos = 0;
  while (next_task_ < num_tasks_) {
    kernel_->gen_task(next_task_++, warp.buf);
    if (!warp.buf.empty()) {
      if (trace_ != nullptr) trace_->on_task(next_task_ - 1, warp.buf);
      return true;
    }
  }
  return false;
}

void GpuModel::launch(const Kernel& kernel, std::function<void()> on_complete) {
  if (active_warps_ != 0) throw std::logic_error("GpuModel: kernel already in flight");
  kernel_ = &kernel;
  on_complete_ = std::move(on_complete);
  next_task_ = 0;
  num_tasks_ = kernel.num_tasks();

  active_warps_ = 0;
  for (WarpId w = 0; w < warps_.size(); ++w) {
    WarpCtx& warp = warps_[w];
    warp.active = refill(warp);
    if (warp.active) {
      ++active_warps_;
      queue_.schedule_warp_in(0, stepper_, w);
    }
  }
  if (active_warps_ == 0) {
    // Degenerate empty kernel: complete asynchronously for uniform flow.
    queue_.schedule_in(0, [this] {
      auto done = std::move(on_complete_);
      kernel_ = nullptr;
      if (done) done();
    });
  }
}

void GpuModel::step_warp_thunk(void* ctx, WarpId w) {
  static_cast<GpuModel*>(ctx)->step_warp(w);
}

void GpuModel::step_warp(WarpId w) {
  WarpCtx& warp = warps_[w];
  UVM_CHECK(warp.active, "GpuModel: stepping retired warp " << w);
  if (warp.pos >= warp.buf.size() && !refill(warp)) {
    retire_warp(w);
    return;
  }

  const Access& a = warp.buf[warp.pos];
  const Cycle now = queue_.now();

  // One LSU issue slot per SM per cycle — claimed up front, before the TLB
  // and L2 lookups, so even accesses fully absorbed by an L2 hit consume
  // their issue cycle (pinned by GpuScheduling.L2HitsStillConsumeIssueSlots).
  Cycle issue = now;
  if (sm_next_issue_[warp.sm] > issue) issue = sm_next_issue_[warp.sm];
  sm_next_issue_[warp.sm] = issue + 1;

  // TLB lookup under the block's current mapping epoch (its eviction
  // count); a miss pays the page-table-walk latency before the access.
  Cycle start = issue;
  const std::uint32_t epoch = driver_.blocks().round_trips(block_of(a.addr));
  if (tlbs_[warp.sm].access(page_of(a.addr), epoch)) {
    ++stats_.tlb_hits;
  } else {
    ++stats_.tlb_misses;
    start += cfg_.gpu.page_walk_latency;
  }

  // Optional L2: hits are absorbed; only the missing lines reach the driver.
  std::uint32_t count = a.count;
  if (l2_) {
    std::uint32_t misses = 0;
    for (std::uint32_t i = 0; i < a.count; ++i) {
      if (!l2_->access(a.addr + std::uint64_t{i} * kWarpAccessBytes,
                       a.type == AccessType::kWrite)) {
        ++misses;
      }
    }
    stats_.l2_hits += a.count - misses;
    stats_.l2_misses += misses;
    if (misses == 0) {
      stats_.total_accesses += a.count;  // the driver never sees these
      finish_access(w, start + kL2HitLatency);
      return;
    }
    count = misses;
  }

  const AccessOutcome out = driver_.access(w, a.addr, a.type, count, start);
  if (out.stalled) return;  // wake_warp resumes us
  finish_access(w, out.done);
}

void GpuModel::wake_warp(WarpId w, Cycle ready) {
  // Wake-ups for warp ids this model does not own (e.g. a harness poking the
  // driver directly) are ignored rather than corrupting warp state.
  if (w >= warps_.size() || !warps_[w].active) return;
  finish_access(w, ready);
}

void GpuModel::finish_access(WarpId w, Cycle done) {
  WarpCtx& warp = warps_[w];
  const Cycle next = done + warp.buf[warp.pos].gap;
  ++warp.pos;
  queue_.schedule_warp_at(next < queue_.now() ? queue_.now() : next, stepper_, w);
}

void GpuModel::retire_warp(WarpId w) {
  WarpCtx& warp = warps_[w];
  warp.active = false;
  UVM_CHECK(active_warps_ > 0, "GpuModel: retiring warp " << w << " with no active warps");
  --active_warps_;
  if (active_warps_ == 0) {
    auto done = std::move(on_complete_);
    kernel_ = nullptr;
    if (done) done();
  }
}

}  // namespace uvmsim
