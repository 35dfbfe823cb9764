#include "policy/adaptive_policies.hpp"

#include <algorithm>
#include <memory>

#include "policy/policy_registry.hpp"

namespace uvmsim {

MigrationDecision TunedThresholdPolicy::decide(const PolicyFeatures& f) {
  // Pre-oversubscription there is nothing to tune: migrating is free while
  // the device has room, exactly like the paper's "Oversub" gate.
  if (!f.oversubscribed) return MigrationDecision::kMigrate;

  const bool migrate = (f.type == AccessType::kWrite && write_migrates_) ||
                       f.post_count >= ts_cur_;
  if (epoch_events_ == 0) epoch_start_evictions_ = f.total_evictions;
  epoch_cost_ += migrate ? kMigrateCost : kRemoteCost;
  if (++epoch_events_ >= kEpochEvents) end_epoch(f.total_evictions);
  return migrate ? MigrationDecision::kMigrate : MigrationDecision::kRemoteAccess;
}

void TunedThresholdPolicy::end_epoch(std::uint64_t total_evictions) {
  epoch_cost_ += (total_evictions - epoch_start_evictions_) * kEvictCost;
  if (have_prev_cost_ && epoch_cost_ > prev_cost_) direction_ = -direction_;
  prev_cost_ = epoch_cost_;
  have_prev_cost_ = true;
  epoch_cost_ = 0;
  epoch_events_ = 0;
  const std::uint32_t step = std::max<std::uint32_t>(1, ts_cur_ / 4);
  if (direction_ > 0)
    ts_cur_ = std::min(ts_cur_ + step, ts_max_);
  else
    ts_cur_ = ts_cur_ > step ? ts_cur_ - step : 1;
}

std::uint32_t LearnedTablePolicy::cell_index(const PolicyFeatures& f) noexcept {
  const std::uint32_t trips = std::min(f.round_trips, kTripBuckets - 1);
  const std::uint32_t occ =
      f.capacity_pages == 0
          ? 0
          : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                f.resident_pages * kOccBuckets / f.capacity_pages, kOccBuckets - 1));
  const std::uint32_t rate_raw = f.fault_arrival_rate();
  const std::uint32_t rate = rate_raw == 0 ? 0 : rate_raw <= 8 ? 1 : rate_raw <= 64 ? 2 : 3;
  return (trips * kOccBuckets + occ) * kRateBuckets + rate;
}

MigrationDecision LearnedTablePolicy::decide(const PolicyFeatures& f) {
  if (!f.oversubscribed) return MigrationDecision::kMigrate;

  Cell& cell = table_[cell_index(f)];
  const bool migrate = (f.type == AccessType::kWrite && write_migrates_) ||
                       f.post_count >= cell_threshold(cell);
  if (migrate) {
    // A migration of a block that already took a round trip is direct thrash
    // evidence for this feature regime; a first migration is a clean one.
    std::uint32_t& counter = f.round_trips > 0 ? cell.thrashes : cell.migrations;
    if (counter < kCounterCap) ++counter;
  }
  return migrate ? MigrationDecision::kMigrate : MigrationDecision::kRemoteAccess;
}

namespace {

std::unique_ptr<MigrationPolicy> make_tuned(const PolicyConfig& cfg) {
  return std::make_unique<TunedThresholdPolicy>(cfg.static_threshold,
                                                cfg.write_triggers_migration);
}

std::unique_ptr<MigrationPolicy> make_learned(const PolicyConfig& cfg) {
  return std::make_unique<LearnedTablePolicy>(cfg.static_threshold, cfg.migration_penalty,
                                              cfg.write_triggers_migration);
}

}  // namespace

void register_adaptive_policies(PolicyRegistry& registry) {
  registry.add({"tuned",
                "hill-climbing threshold tuner: first-touch until oversubscribed, then "
                "re-tunes ts per epoch by windowed fault-service cost",
                make_tuned});
  registry.add({"learned",
                "table-based learned predictor: per-(round_trips, occupancy, fault-rate) "
                "bucket thresholds hardened online by observed thrash",
                make_learned});
}

}  // namespace uvmsim
