#include "stream/delta_accumulator.h"

#include <algorithm>

#include "stream/stream_metrics.h"

namespace csd::stream {

DeltaAccumulator::DeltaAccumulator(const shard::ShardPlan* plan)
    : plan_(plan), dirty_(plan->num_shards(), false) {}

void DeltaAccumulator::PublishGauges() const {
  PendingStaysGauge().Set(static_cast<double>(pending_stays_));
  DirtyShardsGauge().Set(static_cast<double>(dirty_count_));
}

void DeltaAccumulator::Fold(uint32_t user_id, const StayPoint& stay) {
  std::lock_guard<std::mutex> lock(mutex_);
  stays_by_user_[user_id].push_back(stay);
  ++pending_stays_;
  ++total_stays_;
  watermark_ = std::max(watermark_, stay.time);
  for (size_t shard : plan_->HaloShardsOf(stay.position)) {
    if (!dirty_[shard]) {
      dirty_[shard] = true;
      ++dirty_count_;
    }
  }
  PublishGauges();
}

StreamDelta DeltaAccumulator::Drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamDelta delta;
  delta.stays = pending_stays_;
  for (size_t s = 0; s < dirty_.size(); ++s) {
    if (dirty_[s]) delta.dirty_shards.push_back(s);
  }
  pending_stays_ = 0;
  dirty_count_ = 0;
  std::fill(dirty_.begin(), dirty_.end(), false);
  PublishGauges();
  return delta;
}

void DeltaAccumulator::Restore(const StreamDelta& delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_stays_ += delta.stays;
  for (size_t s : delta.dirty_shards) {
    if (!dirty_[s]) {
      dirty_[s] = true;
      ++dirty_count_;
    }
  }
  PublishGauges();
}

std::vector<StayPoint> DeltaAccumulator::CanonicalStays() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StayPoint> out;
  out.reserve(total_stays_);
  for (const auto& [user, stays] : stays_by_user_) {
    out.insert(out.end(), stays.begin(), stays.end());
  }
  return out;
}

Timestamp DeltaAccumulator::watermark() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watermark_;
}

size_t DeltaAccumulator::pending_stays() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_stays_;
}

size_t DeltaAccumulator::total_stays() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_stays_;
}

}  // namespace csd::stream
