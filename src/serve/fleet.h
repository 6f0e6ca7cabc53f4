// cews::serve — Fleet: the serving subsystem's one entry point.
//
// A Fleet is N PolicyServer shards (server.h) — each with its own
// RequestBatcher and inference worker pool — behind a consistent-hash router
// keyed on (client_id, scenario), all serving one shared multi-scenario
// ScenarioRegistry (one hot-swappable, epoch-counted parameter stream per
// named scenario, so one fleet serves many cities). The pieces compose
// into the three guarantees the scheduler's control plane needs:
//
//   * Routing stability — a client's requests always land on the same
//     shard (router.h), so its in-order stream shares one batcher and one
//     latency distribution.
//   * Isolated hot-swap — Publish(scenario, params) swaps one scenario's
//     snapshot without perturbing in-flight requests of any scenario
//     (model_registry.h); responses report the (scenario-local) epoch that
//     served them and are never torn.
//   * Bounded overload — per-shard admission control sheds (immediate
//     ResourceExhausted) instead of queueing once max_queue_depth is
//     reached, keeping tail latency bounded and measurable; sheds are
//     counted per shard (serve.shard.N.shed) and fleet-wide
//     (serve.fleet.shed_total).
//
// Fleet::Create(FleetConfig) is the single validated entry point,
// mirroring core::DrlCews::Create, and the only code that builds a shard.
#ifndef CEWS_SERVE_FLEET_H_
#define CEWS_SERVE_FLEET_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "agents/policy_net.h"
#include "common/result.h"
#include "common/status.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/router.h"

namespace cews::serve {

/// Numeric precision of the inference forward pass.
///
/// kFp32: each shard worker owns a private fp32 PolicyNet replica and
/// copies snapshot values in on epoch change. kInt8 serves the snapshot's
/// publish-time nn::quant::QuantizedParams bundle in place through the
/// packed int8 kernels (agents/quant_policy.h): no per-worker parameter
/// copy, no per-request weight quantization, and the decision protocol
/// (masking, sampling, Rng draw order) is byte-for-byte the fp32 one — only
/// the forward arithmetic changes. Int8 serving is gated on action
/// agreement with the fp32 reference (>= 99% argmax match over the scenario
/// suite; enforced by tests and the deploy/CLI gates).
enum class Precision { kFp32, kInt8 };

/// "fp32" / "int8".
const char* PrecisionName(Precision precision);

/// Parses "fp32" / "int8" (InvalidArgument otherwise).
Result<Precision> ParsePrecision(const std::string& name);

class PolicyServer;

struct FleetConfig {
  /// Architecture served by every shard and scenario (one fleet, one net
  /// shape; scenarios differ in parameters, not architecture).
  agents::PolicyNetConfig net;
  /// Server shards; each gets its own batcher + worker pool.
  int num_shards = 1;
  /// Inference worker threads per shard.
  int threads_per_shard = 1;
  /// Micro-batcher flush bounds, per shard (see batcher.h).
  int max_batch = 8;
  int64_t max_queue_delay_us = 200;
  /// Admission control: per-shard queued requests beyond this depth are
  /// shed with ResourceExhausted (never blocks). 0 = unbounded.
  int max_queue_depth = 1024;
  /// Consistent-hash ring points per shard (see router.h).
  int vnodes_per_shard = 64;
  /// Intra-op NN kernel threads (0 = hardware cores; CEWS_NUM_THREADS
  /// overrides), applied to the global kernel pool once at Create.
  int runtime_threads = 1;
  /// Seeds the per-scenario epoch-0 parameters and the shards' sampling
  /// streams (shard s draws from seed + 0x9E3779B97F4A7C15 * s).
  uint64_t seed = 1;
  /// Named scenarios ("cities") this fleet serves. Non-empty, unique,
  /// non-empty names; requests with an empty scenario tag resolve to
  /// "default" if registered (or the sole name when there is only one).
  std::vector<std::string> scenarios = {ScenarioRegistry::kDefaultScenario};
  /// Forward-pass precision of every shard (see serve::Precision). kInt8
  /// makes each Publish additionally build the per-channel int8 bundle the
  /// shards serve in place — the `--precision` knob of `cews serve`.
  Precision precision = Precision::kFp32;
};

class Fleet {
 public:
  /// Validates the config (net dims, shard/thread/batch/queue bounds,
  /// scenario name set) and starts every shard. All scenarios start at a
  /// freshly initialized epoch-0 model from `seed`; publish trained
  /// parameters via Publish/PublishFromFile.
  static Result<std::unique_ptr<Fleet>> Create(const FleetConfig& config);

  /// Stops and joins every shard (draining queued requests).
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Routes by (request.client_id, request.scenario) and enqueues on the
  /// owning shard; thread-safe and non-blocking. The future always
  /// resolves — non-OK for malformed requests (InvalidArgument), unknown
  /// scenarios (NotFound), a saturated shard (ResourceExhausted, shed
  /// immediately) or after Stop() (FailedPrecondition).
  std::future<ScheduleResponse> Submit(ScheduleRequest request);

  /// Hot-swaps one scenario's parameters fleet-wide (all shards share the
  /// registry). NotFound for unknown scenarios; in-flight requests of
  /// every scenario are unperturbed.
  Status Publish(const std::string& scenario,
                 const std::vector<nn::Tensor>& params);

  /// Loads a checkpoint from disk and publishes it into one scenario (the
  /// live model is untouched on failure; see nn::LoadParameters).
  Status PublishFromFile(const std::string& scenario,
                         const std::string& path);

  /// Epoch of one scenario's current snapshot (relaxed read).
  Result<uint64_t> Epoch(const std::string& scenario) const;

  /// Shard in [0, num_shards) this key routes to (pure; what Submit uses).
  int ShardFor(uint64_t client_id, const std::string& scenario) const {
    return router_.ShardFor(client_id, scenario);
  }

  /// Read-only scenario map (names, epochs).
  const ScenarioRegistry& scenarios() const { return *scenarios_; }

  const agents::PolicyNetConfig& net_config() const { return config_.net; }

  /// The precision every shard serves at.
  Precision precision() const { return config_.precision; }

  /// Floats a pre-encoded ScheduleRequest::state must carry.
  int StateSize() const {
    return config_.net.in_channels * config_.net.grid * config_.net.grid;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Instantaneous queue depth of one shard (telemetry, tests).
  int QueueDepth(int shard) const;

  /// Stops every shard. Later Submits resolve immediately with
  /// FailedPrecondition. Idempotent.
  void Stop();

 private:
  /// Builds shard 0..num_shards-1 over `scenarios`; `config` is valid.
  Fleet(const FleetConfig& config,
        std::shared_ptr<ScenarioRegistry> scenarios);

  const FleetConfig config_;
  std::shared_ptr<ScenarioRegistry> scenarios_;
  ConsistentHashRouter router_;
  std::vector<std::unique_ptr<PolicyServer>> shards_;
};

}  // namespace cews::serve

#endif  // CEWS_SERVE_FLEET_H_
