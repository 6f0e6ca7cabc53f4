// cews::serve — PolicyServer: one shard of a serve::Fleet (fleet.h), an
// in-process, dynamically micro-batched inference server over trained
// DRL-CEWS policies.
//
// The fleet routes each request to one shard; the shard's batcher coalesces
// concurrent requests (flush on max_batch or max_queue_delay_us); a pool of
// inference workers runs ONE batched PolicyNet::Forward per (flush,
// scenario) group and completes each future with the actions, masked
// logits and value estimate. Model parameters hot-swap through the fleet's
// per-scenario ModelRegistry entries without ever blocking in-flight
// inference: each worker keeps a private PolicyNet and copies a snapshot's
// values in only when the (scenario, epoch) it is serving changes, so
// concurrent workers never share mutable tensors and every response is
// computed from exactly one epoch of exactly one scenario.
//
// Fleet::Create builds every shard; nothing else can.
#ifndef CEWS_SERVE_SERVER_H_
#define CEWS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agents/policy_net.h"
#include "common/status.h"
#include "env/state_encoder.h"
#include "serve/batcher.h"
#include "serve/fleet.h"
#include "serve/model_registry.h"
#include "serve/request.h"

namespace cews::obs {
class Counter;
class Gauge;
class Histogram;
class RollingHistogram;
}  // namespace cews::obs

namespace cews::serve {

class PolicyServer {
 public:
  /// Stops and joins the workers (draining queued requests).
  ~PolicyServer();

  PolicyServer(const PolicyServer&) = delete;
  PolicyServer& operator=(const PolicyServer&) = delete;

  /// Enqueues one request; thread-safe and non-blocking. The future always
  /// resolves — with a non-OK ScheduleResponse::status for malformed
  /// requests (InvalidArgument), unknown scenarios (NotFound), a full queue
  /// (ResourceExhausted, when max_queue_depth bounds it) or after Stop()
  /// (FailedPrecondition) — never with a broken promise.
  std::future<ScheduleResponse> Submit(ScheduleRequest request);

  /// Instantaneous batcher queue length (telemetry, tests).
  int QueueDepth() const { return batcher_.depth(); }

  /// Drains the queue, completes every pending request, joins the workers.
  /// Later Submits resolve immediately with FailedPrecondition. Idempotent.
  void Stop();

 private:
  friend class Fleet;

  /// Shard `shard` of a fleet with `config` (validated by Fleet::Create),
  /// serving the fleet's `scenarios`. Its epoch-0 replicas and sampling
  /// streams derive from seed + 0x9E3779B97F4A7C15 * shard.
  PolicyServer(const FleetConfig& config, int shard,
               std::shared_ptr<ScenarioRegistry> scenarios);

  void WorkerLoop(int worker_index);
  Status ValidateRequest(const ScheduleRequest& request) const;

  /// Floats a pre-encoded ScheduleRequest::state must carry.
  int StateSize() const {
    return config_.net.in_channels * config_.net.grid * config_.net.grid;
  }

  const FleetConfig config_;
  const int shard_;
  const uint64_t seed_;
  env::StateEncoder encoder_;
  std::shared_ptr<ScenarioRegistry> scenarios_;
  obs::Gauge* depth_gauge_;       ///< serve.shard.N.queue_depth.
  obs::Counter* shed_counter_;    ///< serve.shard.N.shed.
  obs::Histogram* latency_hist_;  ///< serve.shard.N.latency_ns.
  /// Windowed latency: the shard's own rolling histogram and the shared
  /// fleet-wide one — the SLO monitor and exporter read these.
  obs::RollingHistogram* rolling_latency_;
  obs::RollingHistogram* fleet_rolling_latency_;
  /// Shard-local shed tally for flight-recorder sampling (obs::Counter is
  /// write-only): a shed event is recorded only at power-of-two counts, so
  /// a shed storm cannot evict the sparse lifecycle events around it.
  std::atomic<uint64_t> shed_total_{0};
  RequestBatcher batcher_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace cews::serve

#endif  // CEWS_SERVE_SERVER_H_
