#include "stream/stream_metrics.h"

namespace csd::stream {

obs::Counter& FixesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_fixes_total", "GPS fixes ingested by the streaming layer");
  return c;
}

obs::Counter& LateFixesDroppedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_late_fixes_dropped_total",
      "Fixes dropped for arriving beyond the reorder window");
  return c;
}

obs::Counter& StaysEmittedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_stays_emitted_total",
      "Stay points emitted by the online detectors");
  return c;
}

obs::Counter& DirtyShardsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_dirty_shards_total",
      "Dirty shards drained by publish ticks");
  return c;
}

obs::Counter& PublishTicksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_publish_ticks_total",
      "Publish ticks that published at least one snapshot");
  return c;
}

obs::Counter& CheckpointsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_checkpoints_total",
      "Publish ticks that ran a full-rebuild checkpoint");
  return c;
}

obs::Counter& TickFailuresCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_tick_failures_total",
      "Publish ticks that failed and restored their delta");
  return c;
}

obs::Counter& ShardRebuildsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_shard_rebuilds_total",
      "Single-shard incremental rebuilds published");
  return c;
}

obs::Counter& IngestFaultsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_ingest_faults_total",
      "Ingest calls failed by the serve/ingest failpoint");
  return c;
}

obs::Counter& InTileRebuildsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_in_tile_rebuilds_total",
      "Tile publishes absorbed incrementally by the delta-aware engine");
  return c;
}

obs::Counter& InTileFallbacksCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Get().GetCounter(
      "csd_stream_in_tile_fallbacks_total",
      "Tile publishes that re-staged the whole tile (first build, changed "
      "POI set or churn past the threshold)");
  return c;
}

obs::Gauge& PendingStaysGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Get().GetGauge(
      "csd_stream_pending_stays",
      "Stay points folded but not yet covered by a publish tick");
  return g;
}

obs::Gauge& DirtyShardsGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Get().GetGauge(
      "csd_stream_dirty_shards",
      "Shards whose pending delta has not yet been covered by a publish "
      "tick");
  return g;
}

obs::Histogram& FoldLatencyHistogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::Get().GetHistogram(
      "csd_stream_fold_seconds",
      "Latency of folding one ingest batch (detect + accumulate)",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1});
  return hist;
}

void RegisterStreamMetrics() {
  FixesCounter();
  LateFixesDroppedCounter();
  StaysEmittedCounter();
  DirtyShardsCounter();
  PublishTicksCounter();
  CheckpointsCounter();
  TickFailuresCounter();
  ShardRebuildsCounter();
  IngestFaultsCounter();
  InTileRebuildsCounter();
  InTileFallbacksCounter();
  PendingStaysGauge();
  DirtyShardsGauge();
  FoldLatencyHistogram();
}

}  // namespace csd::stream
