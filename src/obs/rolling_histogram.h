// cews::obs — rolling-window histograms: windowed latency percentiles
// without an external prober.
//
// A RollingHistogram is a fixed ring of time-bucketed exponential
// histograms: each ring slot owns one wall-clock second of samples
// (count, sum, and the same power-of-two buckets as obs::Histogram).
// Record() lands a sample in the slot for the current second, lazily
// re-zeroing the slot when the ring laps it; Window(w) aggregates the
// slots covering the last w seconds into an ordinary HistogramSnapshot,
// so windowed p50/p99/p999 come out of the same interpolating
// Percentile() the cumulative histograms use.
//
// Semantics: Window(w) covers the half-open interval
// (now - w seconds, now] *by slot second* — the current partial second is
// included (gauges from a fresh window reflect in-flight load immediately)
// and the oldest included slot may hold up to one extra second of age, so
// a window-w gauge reads samples between (w-1) and w+1 seconds old. Slots
// older than the ring capacity are recycled; windows wider than
// kMaxWindowSeconds are clamped.
//
// Thread safety: Record is a handful of relaxed fetch_adds (multi-writer,
// unlike the thread-local-sharded obs::Histogram — rolling histograms are
// per-shard, so contention is bounded by one shard's worker count).
// Slot rotation (once per second per slot) takes a mutex; readers never
// block writers. A snapshot racing writers may be short a few in-flight
// samples — windowed gauges are estimates by construction.
//
// Like Counter/Histogram, instances are created on first use via
// GetRollingHistogram(name) and live forever; creation past
// kMaxRollingHistograms CHECK-fails (see the headroom math below).
#ifndef CEWS_OBS_ROLLING_HISTOGRAM_H_
#define CEWS_OBS_ROLLING_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace cews::obs {

/// Ring capacity in one-second slots. Windows up to kMaxWindowSeconds are
/// exact; 64 slots cover the 10s/60s windows the SLO monitor evaluates
/// with two slots of rotation slack.
inline constexpr int kRollingSlots = 64;
inline constexpr int kMaxWindowSeconds = kRollingSlots - 2;

/// Creation cap. Headroom math (mirrors kMaxCounters/kMaxHistograms): a
/// full-size serving fleet mints one rolling histogram per shard
/// (serve.shard.N.latency, N < 64 by Fleet::Create) plus the fleet-wide
/// serve.fleet.latency; 80 leaves ~15 slots for future windowed sources.
inline constexpr int kMaxRollingHistograms = 80;

class RollingHistogram {
 public:
  explicit RollingHistogram(std::string name) : name_(std::move(name)) {}

  RollingHistogram(const RollingHistogram&) = delete;
  RollingHistogram& operator=(const RollingHistogram&) = delete;

  /// Records one sample (serve path: nanoseconds) into the slot owning the
  /// current second. `now_ns` = 0 reads the steady clock; tests inject
  /// explicit times to drive rotation deterministically.
  void Record(uint64_t value, uint64_t now_ns = 0);

  /// Aggregates the slots covering the last `window_seconds` (clamped to
  /// [1, kMaxWindowSeconds]) into a snapshot named
  /// "<name>[<window>s]". Percentiles interpolate like any
  /// HistogramSnapshot. `now_ns` = 0 reads the steady clock.
  HistogramSnapshot Window(int window_seconds, uint64_t now_ns = 0) const;

  const std::string& name() const { return name_; }

  /// Zeroes every slot. Test-only: must not race with writers.
  void ResetForTest();

 private:
  struct Slot {
    /// Wall-clock second this slot's samples belong to (-1 = never used).
    /// Written under rotate_mu_ with release; Record/Window check it with
    /// acquire, so a slot's samples are never attributed to a stale second.
    std::atomic<int64_t> second{-1};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };

  /// Re-zeroes `slot` for `second` (mutex-guarded; once per lap).
  void Rotate(Slot& slot, int64_t second);

  const std::string name_;
  mutable std::mutex rotate_mu_;
  std::array<Slot, kRollingSlots> slots_{};
};

/// Create-or-lookup by name against the process-wide set (same contract as
/// GetCounter: the pointer is valid forever).
RollingHistogram* GetRollingHistogram(const std::string& name);

/// Every registered rolling histogram, name-sorted (exporter scrape).
std::vector<RollingHistogram*> AllRollingHistograms();

}  // namespace cews::obs

#endif  // CEWS_OBS_ROLLING_HISTOGRAM_H_
