// cews::serve — synthetic load generation against a serving Fleet, in two
// modes:
//
//   * Closed loop — N client threads, each driving its own Env through the
//     fleet (encode → submit → wait → step), the pattern a real per-fleet
//     control loop follows. Offered load is *gated by completions*: when
//     the server slows down, clients slow down with it, so queues stay
//     short and the measured p99 flatters the server. Good for throughput
//     and batching-efficiency numbers, NOT for tail latency under load.
//
//   * Open loop — requests arrive as a Poisson process at `arrival_rps`,
//     independent of completions, from a simulated population of
//     `clients` distinct client ids (the ids drive routing; no thread per
//     client, so populations of 10^5–10^6 cost nothing). Latency is
//     charged from each request's *scheduled* arrival time, so submitter
//     lag cannot hide queueing delay (no coordinated omission), and
//     overload shows up honestly: either as growing p99/p999 (unbounded
//     queues) or as counted sheds (admission control). This is the mode
//     the p999 column exists for.
//
// Used by the `cews serve` CLI subcommand and bench_serve.
#ifndef CEWS_SERVE_LOADGEN_H_
#define CEWS_SERVE_LOADGEN_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "env/env.h"
#include "env/map.h"
#include "serve/fleet.h"

namespace cews::serve {

enum class LoadMode {
  kClosedLoop,  ///< Completion-gated clients (throughput/batching focus).
  kOpenLoop,    ///< Poisson arrivals at arrival_rps (honest tail latency).
};

struct LoadSpec {
  LoadMode mode = LoadMode::kClosedLoop;

  /// Closed loop: concurrent client threads (each submits its next request
  /// only after the previous response arrives). Open loop: size of the
  /// simulated client-id population requests are drawn from.
  int clients = 8;

  /// Closed loop only: requests per client; total offered work is
  /// clients * this.
  int requests_per_client = 100;

  /// Open loop only: aggregate Poisson arrival rate (requests/second,
  /// summed over all submitter threads) and how long to offer it.
  double arrival_rps = 1000.0;
  double duration_seconds = 1.0;
  /// Open loop only: submitter threads generating the arrival process
  /// (each carries arrival_rps / submit_threads of the rate).
  int submit_threads = 2;

  /// Environment the clients observe (horizon, action space, ...). The
  /// action space must produce the server net's num_moves and the map must
  /// spawn its num_workers.
  env::EnvConfig env;
  /// Argmax decisions instead of sampling.
  bool deterministic = false;
  /// Attach per-step move-validity masks (env::MoveValidityMask).
  bool use_masks = true;
  /// Scenario tag stamped on every request ("" = the fleet's default).
  std::string scenario;
  /// Seeds the open-loop arrival process and client-id draws.
  uint64_t seed = 1;
};

struct LoadResult {
  uint64_t requests = 0;  ///< Submitted (completed + shed + errors).
  uint64_t errors = 0;    ///< Responses with a non-OK, non-shed status.
  /// Requests shed by admission control (ResourceExhausted). Sheds are the
  /// honest overload signal — they are excluded from the latency
  /// percentiles (they resolve immediately) and counted here instead.
  uint64_t shed = 0;
  double wall_seconds = 0.0;
  /// Completed (non-shed, non-error) responses per wall second.
  double throughput_rps = 0.0;
  /// Open loop: arrival rate actually generated (sleep jitter makes it
  /// sag below arrival_rps when submitters can't keep up; compare the two
  /// before trusting a row). Closed loop: equals throughput over the run.
  double offered_rps = 0.0;
  /// Completed-request latency, exact percentiles over every completion
  /// (not bucketed estimates). Closed loop: submit-to-response. Open loop:
  /// scheduled-arrival-to-response (coordinated-omission-free).
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  /// Exact p99 of the server-side latency of the same completions
  /// (ScheduleResponse::latency_ns, enqueue to completion). In closed loop
  /// this is the interval the server's rolling latency windows record, so
  /// the two compare like for like; the client-side percentiles above add
  /// the client's own wake-up delay.
  double server_latency_p99_us = 0.0;
  /// Mean batched-Forward size over the completions (how well requests
  /// coalesced).
  double mean_batch = 0.0;
};

/// Runs the load described by `spec` against a fleet to completion (every
/// future harvested). Closed-loop clients alternate between submitting
/// pre-encoded states (even client ids) and raw env observations (odd),
/// exercising both encoding paths; open-loop submitters pre-encode once
/// (per-request server-side encoding would measure the encoder, not the
/// serving path). Returns InvalidArgument for non-positive counts/rates.
Result<LoadResult> RunLoad(Fleet& fleet, const env::Map& map,
                           const LoadSpec& spec);

}  // namespace cews::serve

#endif  // CEWS_SERVE_LOADGEN_H_
