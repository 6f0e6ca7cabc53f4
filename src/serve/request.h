// cews::serve — request/response types of the in-process policy-inference
// service: what one client (a worker fleet's control loop) sends to the
// PolicyServer and what it gets back.
#ifndef CEWS_SERVE_REQUEST_H_
#define CEWS_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agents/ppo.h"
#include "common/status.h"
#include "env/env.h"

namespace cews::serve {

/// Request-lifecycle trace context. When tracing is on, Submit stamps a
/// process-unique id; the shard worker then emits one tagged span per
/// lifecycle phase (serve.queue_wait, serve.batch_assemble, serve.forward,
/// serve.scatter) carrying (id, shard) as trace args, so one request's
/// journey is reconstructible from the Chrome trace across batcher and
/// worker threads. With tracing off the id stays 0 and the serve path
/// pays a single relaxed load (the TraceEnabled check) per request.
struct RequestTrace {
  uint64_t id = 0;  ///< 0 = untraced.
  bool enabled() const { return id != 0; }
};

/// One client's ask for a scheduling decision. Carries either a pre-encoded
/// grid state or a raw environment to encode server-side.
struct ScheduleRequest {
  /// Stable client identity. A Fleet's consistent-hash router keys on
  /// (client_id, scenario), so every request a client sends lands on the
  /// same shard — its in-order stream shares one batcher and its latency
  /// is not smeared across the fleet. Ignored by a standalone PolicyServer.
  uint64_t client_id = 0;

  /// Named scenario ("city") whose published model should decide. Empty
  /// resolves to ScenarioRegistry::kDefaultScenario (or the sole scenario
  /// when only one is registered); unknown names are rejected NotFound.
  std::string scenario;

  /// Pre-encoded state in StateEncoder layout ([channels, grid, grid]
  /// row-major, exactly PolicyServer::StateSize() finite floats; a NaN or
  /// infinity is rejected InvalidArgument). Leave empty to have the server
  /// encode `env` instead.
  std::vector<float> state;

  /// Raw observation to encode server-side when `state` is empty. The
  /// pointed-to Env must stay alive and unmodified until the response
  /// future resolves — the closed-loop client pattern (submit, wait, step)
  /// satisfies this by construction.
  const env::Env* env = nullptr;

  /// Optional move-validity mask, [num_workers * num_moves] 0/1 flags
  /// (env::MoveValidityMask layout). Masked-out moves get the -1e9 logit
  /// sentinel before sampling. Empty = every move valid.
  std::vector<uint8_t> move_mask;

  /// Argmax instead of sampling. Per-request: deterministic and sampled
  /// requests still share one batched Forward.
  bool deterministic = false;

  /// Optional client-declared arrival time (Stopwatch::NowNs clock). When
  /// set, the server's latency *metrics* (per-shard and fleet rolling
  /// histograms, latency_ns histograms) charge from min(arrival_ns,
  /// enqueue time) instead of the enqueue time, so a lagging submitter
  /// cannot hide queueing delay from the windowed gauges (the same
  /// coordinated-omission rule the open-loop load generator applies).
  /// ScheduleResponse::latency_ns stays enqueue-based. 0 = unset.
  uint64_t arrival_ns = 0;

  /// Filled by PolicyServer::Submit when tracing is enabled; clients leave
  /// it default-constructed.
  RequestTrace trace;
};

/// The completed decision for one request.
struct ScheduleResponse {
  /// Non-OK when the request was rejected (bad sizes, server stopped).
  /// Every other field is meaningful only when ok().
  Status status;

  /// Parameter-snapshot epoch that served this request. A response is
  /// computed entirely from the snapshot captured at dequeue time — never
  /// a torn mix of old and new parameters.
  uint64_t epoch = 0;

  /// Sampled per-worker actions, joint log-prob and value estimate V(s).
  agents::ActResult act;

  /// The exact logits the decision was drawn from: post-masking route
  /// logits [num_workers * num_moves] and charge logits [num_workers * 2].
  std::vector<float> move_logits;
  std::vector<float> charge_logits;

  /// Telemetry: how many requests shared this one's batched Forward, and
  /// the enqueue-to-completion time of this one.
  int batch_size = 0;
  uint64_t latency_ns = 0;

  /// Fleet shard that served this request (-1 from a standalone
  /// PolicyServer). The routing invariant — same (client_id, scenario),
  /// same shard — is observable here.
  int shard = -1;

  bool ok() const { return status.ok(); }
};

}  // namespace cews::serve

#endif  // CEWS_SERVE_REQUEST_H_
