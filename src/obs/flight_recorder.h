// cews::obs — crash flight recorder: a bounded lock-free ring of recent
// structured events (model publishes, epoch swaps, request sheds, SLO
// transitions, server lifecycle) that can be dumped to a post-mortem file
// from a fatal-signal handler.
//
// Why not just logs: when a serving process dies under load, the question
// is "what was it doing in the last few seconds" — the recorder keeps the
// newest kFlightRingSlots events in memory at a cost of a few relaxed
// atomic stores per event, and the dump path is async-signal-safe (no
// malloc, no stdio, no locks: hand-rolled decimal formatting into a static
// buffer + one write(2)), so it works from inside SIGSEGV.
//
// Record() uses a per-slot seqlock: the writer claims a global ticket,
// marks the slot busy, stores the fields as relaxed atomics, then commits
// the ticket with a release store. Readers (Collect and the signal-time
// dump) skip busy or torn slots instead of blocking, so a reader never
// stalls the serving hot path and the signal handler never deadlocks on a
// lock held by the interrupted thread. Detail strings are stored as
// fixed-size arrays of atomic words — no pointers to free()-able memory,
// and data-race-free under TSan — and are sanitized at Record() time
// (quotes, backslashes, control bytes replaced) so the dump can splice
// them into JSON verbatim.
//
// The dump embeds the most recent metrics snapshot JSON, refreshed
// periodically by the MetricsExporter into a double-buffered fixed
// arena — the signal handler only reads whichever buffer was last
// published, never snapshots (snapshotting allocates).
#ifndef CEWS_OBS_FLIGHT_RECORDER_H_
#define CEWS_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace cews::obs {

/// Ring capacity. 1024 events at serve cadence (publishes, swaps, sampled
/// sheds, SLO transitions) is minutes of history; a shed storm is
/// power-of-two sampled at the call sites so it cannot evict the sparse
/// lifecycle events that explain it.
inline constexpr int kFlightRingSlots = 1024;

/// Detail payload: 6 words = 48 bytes, NUL-padded.
inline constexpr int kFlightDetailWords = 6;
inline constexpr int kFlightDetailBytes = kFlightDetailWords * 8;

enum class FlightEventKind : uint32_t {
  kNone = 0,      ///< empty slot (never recorded)
  kServerStart,   ///< a fleet shard began serving (a = shard index)
  kServerStop,    ///< a fleet shard stopped (a = shard index)
  kPublish,       ///< model params published (a = new epoch)
  kEpochSwap,     ///< a worker swapped its replica (a = shard, b = epoch)
  kShed,          ///< overload shed, sampled (a = shard, b = shed count)
  kSloBreach,     ///< an SLO target went from met to breached
  kSloRecover,    ///< an SLO target went from breached back to met
  kNote,          ///< free-form marker (tools, tests)
};

/// Stable lowercase token for a kind ("publish", "slo_breach", ...).
const char* FlightEventKindName(FlightEventKind kind);

/// One event as collected from the ring (ordered oldest to newest).
struct FlightEvent {
  uint64_t seq = 0;    ///< global ticket, 1-based, monotonic
  uint64_t ts_ns = 0;  ///< steady clock at Record()
  FlightEventKind kind = FlightEventKind::kNone;
  std::string detail;  ///< sanitized, at most kFlightDetailBytes chars
  int64_t a = 0;       ///< kind-specific scalars (see enum docs)
  int64_t b = 0;
};

class FlightRecorder {
 public:
  /// The process-wide recorder (leaked, never destroyed).
  static FlightRecorder& Global();

  /// Appends one event. Lock-free, wait-free against readers; safe from
  /// any thread. `detail` may be null; it is truncated to
  /// kFlightDetailBytes and sanitized for JSON embedding.
  void Record(FlightEventKind kind, const char* detail, int64_t a = 0,
              int64_t b = 0);

  /// Publishes a metrics-snapshot JSON for the signal-time dump to embed.
  /// A document too large for the arena (64 KiB) is replaced by "null"
  /// rather than truncated, so the dump stays parseable. Call from one
  /// thread at a time (the MetricsExporter tick); not async-signal-safe.
  void SetMetricsJson(const std::string& json);

  /// Clean-shutdown dump: writes the post-mortem JSON document to `path`
  /// using ordinary buffered IO. `reason` lands in the "reason" field.
  Status WriteDump(const std::string& path, const char* reason);

  /// Async-signal-safe dump of the same document to an open fd. Public so
  /// tests can exercise the signal-path formatter without raising.
  void DumpToFd(int fd, const char* reason);

  /// Surviving events, oldest first (busy/torn slots skipped).
  std::vector<FlightEvent> Collect() const;

  /// Zeroes the ring and the metrics arena. Test-only: must not race
  /// writers.
  void ClearForTest();

 private:
  FlightRecorder() = default;

  struct Slot {
    /// 0 = empty, kBusySeq = mid-write, else the committed ticket.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint32_t> kind{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::array<std::atomic<uint64_t>, kFlightDetailWords> detail{};
  };

  static constexpr uint64_t kBusySeq = ~uint64_t{0};
  static constexpr int kMetricsArenaBytes = 64 * 1024;

  std::atomic<uint64_t> next_seq_{0};
  std::array<Slot, kFlightRingSlots> slots_{};

  /// Double-buffered metrics JSON: the exporter writes the inactive
  /// buffer then flips `metrics_active_` with release; the dump reads the
  /// active one with acquire. A dump racing *two* consecutive Set calls
  /// can read bytes mid-overwrite — tolerated: the process is dying and
  /// the events array (the load-bearing part) is unaffected.
  std::array<std::array<char, kMetricsArenaBytes>, 2> metrics_json_{};
  std::array<std::atomic<int>, 2> metrics_len_{};
  std::atomic<int> metrics_active_{-1};  ///< -1 = never published
};

/// Installs fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
/// SIGILL, SIGTERM, SIGINT) that dump Global() to
/// `<dir>/postmortem.<pid>.json` and then re-raise with the default
/// disposition. Idempotent; the first call wins the directory.
void InstallFlightRecorderSignalHandler(const std::string& dir);

}  // namespace cews::obs

#endif  // CEWS_OBS_FLIGHT_RECORDER_H_
