// cews::serve — dynamic micro-batcher: an MPMC queue that coalesces
// independently-submitted requests into batches for one shared Forward.
//
// Flush policy: a consumer's PopBatch returns as soon as either the queue
// holds max_batch requests (flush by size) or the *oldest* queued request
// has waited max_queue_delay_us (flush by timeout), whichever comes first.
// The delay bound is therefore a hard cap on the queueing latency any
// request pays to help later arrivals share its batch.
//
// Admission control: an optional max_depth bounds the queue. A Push against
// a full queue returns kOverloaded immediately — the queue sheds, it never
// blocks the producer — so overload turns into fast ResourceExhausted
// responses instead of unbounded queueing latency (see DESIGN.md §6).
#ifndef CEWS_SERVE_BATCHER_H_
#define CEWS_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "serve/request.h"

namespace cews::obs {
class Gauge;
}  // namespace cews::obs

namespace cews::serve {

class ModelRegistry;

/// A queued request: payload, completion promise, enqueue timestamp.
struct PendingRequest {
  ScheduleRequest request;
  std::promise<ScheduleResponse> promise;
  uint64_t enqueue_ns = 0;  ///< Stopwatch::NowNs() at Push.
  /// Scenario registry the request resolved to at Submit (validation
  /// happens once, producers-side); workers group a popped batch by this
  /// pointer so each scenario group shares one batched Forward.
  ModelRegistry* registry = nullptr;
};

/// Outcome of RequestBatcher::Push. On anything but kAccepted the batcher
/// has NOT consumed the item — the caller still owns the promise and must
/// complete it (FailedPrecondition after shutdown, ResourceExhausted when
/// shed).
enum class PushResult {
  kAccepted,    ///< Queued; a consumer will complete the promise.
  kShutdown,    ///< Rejected: Shutdown() was called.
  kOverloaded,  ///< Shed: the queue is at max_depth.
};

/// Thread-safe for any number of producers (Push) and consumers (PopBatch).
class RequestBatcher {
 public:
  /// `max_depth` bounds the queue (0 = unbounded). `depth_gauge`, when
  /// non-null, tracks the instantaneous queue length (a shard passes its
  /// serve.shard.N.queue_depth gauge; nullptr skips telemetry).
  RequestBatcher(int max_batch, int64_t max_queue_delay_us,
                 int max_depth = 0, obs::Gauge* depth_gauge = nullptr);

  /// Enqueues one request, stamping its enqueue time. Never blocks: a full
  /// queue sheds (kOverloaded) rather than waiting for capacity.
  PushResult Push(PendingRequest& item);

  /// Blocks until a batch is ready per the flush policy, then returns up to
  /// max_batch requests in arrival order. Returns an empty vector only at
  /// shutdown with the queue fully drained — the consumer's exit signal.
  std::vector<PendingRequest> PopBatch();

  /// Rejects future Pushes and wakes all consumers. Already-queued requests
  /// are still handed out by PopBatch (graceful drain). Idempotent.
  void Shutdown();

  /// Instantaneous queue length (telemetry).
  int depth() const;

  int max_batch() const { return max_batch_; }
  int max_depth() const { return max_depth_; }

 private:
  const int max_batch_;
  const int64_t max_delay_ns_;
  const int max_depth_;  ///< 0 = unbounded.
  obs::Gauge* const depth_gauge_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool shutdown_ = false;
};

}  // namespace cews::serve

#endif  // CEWS_SERVE_BATCHER_H_
