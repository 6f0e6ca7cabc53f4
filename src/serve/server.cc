#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "agents/eval.h"
#include "agents/quant_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/params.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/rolling_histogram.h"
#include "obs/trace.h"

namespace cews::serve {

namespace {

/// Epoch-0 parameters: a freshly initialized network. The temporary net's
/// tensors are cloned by the registry, so it can die here.
std::vector<nn::Tensor> InitialParams(const PolicyServerConfig& config) {
  Rng rng(config.seed);
  const agents::PolicyNet net(config.net, rng);
  return net.Parameters();
}

/// Per-shard metric names: serve.shard.N.* for fleet shards, the legacy
/// serve.* names for standalone servers.
std::string ShardMetricName(int shard_index, const char* suffix) {
  if (shard_index < 0) return std::string("serve.") + suffix;
  return "serve.shard." + std::to_string(shard_index) + "." + suffix;
}

}  // namespace

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "unknown";
}

Result<Precision> ParsePrecision(const std::string& name) {
  if (name == "fp32") return Precision::kFp32;
  if (name == "int8") return Precision::kInt8;
  return Status::InvalidArgument("unknown precision '" + name +
                                 "' (expected fp32 or int8)");
}

Status PolicyServer::ValidateConfig(const PolicyServerConfig& config) {
  if (config.net.grid <= 0 || config.net.in_channels <= 0 ||
      config.net.num_workers <= 0 || config.net.num_moves <= 0) {
    return Status::InvalidArgument(
        "net dimensions must be positive (grid " +
        std::to_string(config.net.grid) + ", channels " +
        std::to_string(config.net.in_channels) + ", workers " +
        std::to_string(config.net.num_workers) + ", moves " +
        std::to_string(config.net.num_moves) + ")");
  }
  if (config.num_threads <= 0) {
    return Status::InvalidArgument("num_threads must be positive, got " +
                                   std::to_string(config.num_threads));
  }
  if (config.max_batch <= 0) {
    return Status::InvalidArgument("max_batch must be positive, got " +
                                   std::to_string(config.max_batch));
  }
  if (config.max_queue_delay_us < 0) {
    return Status::InvalidArgument(
        "max_queue_delay_us must be non-negative, got " +
        std::to_string(config.max_queue_delay_us));
  }
  if (config.max_queue_depth < 0) {
    return Status::InvalidArgument(
        "max_queue_depth must be non-negative (0 = unbounded), got " +
        std::to_string(config.max_queue_depth));
  }
  if (config.runtime_threads < 0) {
    return Status::InvalidArgument(
        "runtime_threads must be non-negative (0 = hardware cores), got " +
        std::to_string(config.runtime_threads));
  }
  return Status::OK();
}

Result<std::unique_ptr<PolicyServer>> PolicyServer::Create(
    const PolicyServerConfig& config) {
  CEWS_RETURN_IF_ERROR(ValidateConfig(config));
  // Size the intra-op kernel pool before inference threads start issuing
  // ParallelFor regions (same contract as the trainers).
  runtime::SetGlobalPoolThreads(config.runtime_threads);
  auto scenarios = std::make_shared<ScenarioRegistry>(
      std::vector<std::string>{ScenarioRegistry::kDefaultScenario},
      InitialParams(config),
      /*quantize=*/config.precision == Precision::kInt8);
  return std::unique_ptr<PolicyServer>(
      new PolicyServer(config, std::move(scenarios)));
}

Result<std::unique_ptr<PolicyServer>> PolicyServer::Create(
    const PolicyServerConfig& config,
    std::shared_ptr<ScenarioRegistry> scenarios) {
  CEWS_RETURN_IF_ERROR(ValidateConfig(config));
  if (scenarios == nullptr) {
    return Status::InvalidArgument("scenario registry must be non-null");
  }
  if (config.precision == Precision::kInt8 && !scenarios->quantizes()) {
    return Status::InvalidArgument(
        "int8 shard requires a registry built with quantize=true");
  }
  return std::unique_ptr<PolicyServer>(
      new PolicyServer(config, std::move(scenarios)));
}

PolicyServer::PolicyServer(const PolicyServerConfig& config,
                           std::shared_ptr<ScenarioRegistry> scenarios)
    : config_(config),
      encoder_(env::StateEncoderConfig{config.net.grid}),
      scenarios_(std::move(scenarios)),
      default_registry_(scenarios_->Find("") != nullptr
                            ? scenarios_->Find("")
                            : scenarios_->Find(scenarios_->names().front())),
      depth_gauge_(obs::GetGauge(
          ShardMetricName(config.shard_index, "queue_depth"))),
      shed_counter_(obs::GetCounter(
          ShardMetricName(config.shard_index, "shed"))),
      latency_hist_(obs::GetHistogram(
          ShardMetricName(config.shard_index, "latency_ns"))),
      rolling_latency_(obs::GetRollingHistogram(
          ShardMetricName(config.shard_index, "latency"))),
      fleet_rolling_latency_(config.shard_index >= 0
                                 ? obs::GetRollingHistogram(
                                       "serve.fleet.latency")
                                 : nullptr),
      batcher_(config.max_batch, config.max_queue_delay_us,
               config.max_queue_depth, depth_gauge_) {
  CEWS_CHECK(default_registry_ != nullptr);
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kServerStart,
                                       nullptr, config_.shard_index);
  workers_.reserve(static_cast<size_t>(config_.num_threads));
  for (int i = 0; i < config_.num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

PolicyServer::~PolicyServer() { Stop(); }

void PolicyServer::Stop() {
  if (stopped_.exchange(true)) return;
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kServerStop,
                                       nullptr, config_.shard_index);
  batcher_.Shutdown();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

Status PolicyServer::ValidateRequest(const ScheduleRequest& request) const {
  if (request.state.empty() && request.env == nullptr) {
    return Status::InvalidArgument(
        "request carries neither a pre-encoded state nor an env");
  }
  if (!request.state.empty() &&
      static_cast<int>(request.state.size()) != StateSize()) {
    return Status::InvalidArgument(
        "encoded state has " + std::to_string(request.state.size()) +
        " floats, server expects " + std::to_string(StateSize()));
  }
  // count_if, not all_of: without an early exit the scan vectorizes.
  if (std::count_if(request.state.begin(), request.state.end(),
                    [](float v) { return !std::isfinite(v); }) != 0) {
    return Status::InvalidArgument("encoded state holds a non-finite value");
  }
  if (request.state.empty()) {
    if (config_.net.in_channels != env::StateEncoder::kChannels) {
      return Status::InvalidArgument(
          "server net takes " + std::to_string(config_.net.in_channels) +
          " channels; server-side encoding produces " +
          std::to_string(env::StateEncoder::kChannels) +
          " — submit a pre-encoded state instead");
    }
    if (request.env->num_workers() != config_.net.num_workers) {
      return Status::InvalidArgument(
          "env has " + std::to_string(request.env->num_workers()) +
          " workers, server net commands " +
          std::to_string(config_.net.num_workers));
    }
  }
  const int mask_size = config_.net.num_workers * config_.net.num_moves;
  if (!request.move_mask.empty() &&
      static_cast<int>(request.move_mask.size()) != mask_size) {
    return Status::InvalidArgument(
        "move_mask has " + std::to_string(request.move_mask.size()) +
        " flags, server expects " + std::to_string(mask_size));
  }
  return Status::OK();
}

std::future<ScheduleResponse> PolicyServer::Submit(
    ScheduleRequest request) {
  PendingRequest item;
  item.request = std::move(request);
  std::future<ScheduleResponse> future = item.promise.get_future();

  const auto reject = [&item, this](Status status) {
    ScheduleResponse response;
    response.status = std::move(status);
    response.shard = config_.shard_index;
    item.promise.set_value(std::move(response));
  };

  const Status valid = ValidateRequest(item.request);
  if (!valid.ok()) {
    reject(valid);
    return future;
  }
  item.registry = scenarios_->Find(item.request.scenario);
  if (item.registry == nullptr) {
    reject(Status::NotFound("unknown scenario '" + item.request.scenario +
                            "'"));
    return future;
  }
  // Request-lifecycle tracing: stamp a process-unique id so the worker can
  // tag this request's phase spans. With tracing off this is the one
  // relaxed load the serve path pays per request.
  if (obs::TraceEnabled()) {
    static std::atomic<uint64_t> next_trace_id{0};
    item.request.trace.id =
        next_trace_id.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  static obs::Counter* const requests = obs::GetCounter("serve.requests");
  static obs::Counter* const fleet_shed =
      obs::GetCounter("serve.fleet.shed_total");
  switch (batcher_.Push(item)) {
    case PushResult::kAccepted:
      requests->Increment();
      break;
    case PushResult::kShutdown:
      reject(Status::FailedPrecondition("PolicyServer is stopped"));
      break;
    case PushResult::kOverloaded: {
      // Shed, never block: overload resolves immediately so the client can
      // back off, instead of queueing into unbounded tail latency.
      shed_counter_->Increment();
      fleet_shed->Increment();
      // Power-of-two sampled flight event: the first sheds are the story,
      // a storm must not evict publish/swap history from the ring.
      const uint64_t sheds =
          shed_total_.fetch_add(1, std::memory_order_relaxed) + 1;
      if ((sheds & (sheds - 1)) == 0) {
        obs::FlightRecorder::Global().Record(
            obs::FlightEventKind::kShed, nullptr, config_.shard_index,
            static_cast<int64_t>(sheds));
      }
      reject(Status::ResourceExhausted(
          "shard queue full (max_queue_depth " +
          std::to_string(config_.max_queue_depth) + ")"));
      break;
    }
  }
  return future;
}

Status PolicyServer::Publish(const std::vector<nn::Tensor>& params) {
  return default_registry_->Publish(params);
}

Status PolicyServer::PublishFromFile(const std::string& path) {
  return default_registry_->PublishFromFile(path);
}

void PolicyServer::WorkerLoop(int worker_index) {
  // Private replica: parameters are copied in from a registry snapshot
  // whenever the (scenario, epoch) being served changes, so workers never
  // share mutable tensors and a scenario group is served entirely by the
  // snapshot it captured.
  Rng init_rng(config_.seed + 0x9E3779B97F4A7C15ULL *
                                 static_cast<uint64_t>(worker_index + 1));
  agents::PolicyNet net(config_.net, init_rng);
  const std::vector<nn::Tensor> net_params = net.Parameters();
  Rng sample_rng(config_.seed * 1000003ULL +
                 static_cast<uint64_t>(worker_index));
  const bool int8_path = config_.precision == Precision::kInt8;
  const ModelRegistry* cached_registry = nullptr;
  uint64_t cached_epoch = ~uint64_t{0};

  static obs::Counter* const batches = obs::GetCounter("serve.batches");
  static obs::Histogram* const batch_size_hist =
      obs::GetHistogram("serve.batch_size");
  static obs::Histogram* const latency_hist =
      obs::GetHistogram("serve.request_latency_ns");

  const int state_size = StateSize();
  const int mask_size = config_.net.num_workers * config_.net.num_moves;
  std::vector<float> states;
  std::vector<uint8_t> masks;
  std::vector<uint8_t> deterministic;
  // (registry, member indices) per scenario in this flush, grouped in
  // first-appearance order. Single-scenario flushes — every standalone
  // server, and fleet shards under per-city load — form exactly one group,
  // preserving the pre-fleet batching behavior bit for bit.
  std::vector<std::pair<ModelRegistry*, std::vector<int>>> groups;

  for (;;) {
    std::vector<PendingRequest> batch = batcher_.PopBatch();
    if (batch.empty()) return;  // Shutdown, queue drained.
    CEWS_TRACE_SCOPE("serve.batch");
    // One TraceEnabled read gates every per-request phase timestamp in
    // this flush; with tracing off the loop takes no extra clock reads.
    const bool tracing = obs::TraceEnabled();
    const uint64_t pop_ns = tracing ? Stopwatch::NowNs() : 0;

    groups.clear();
    for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
      ModelRegistry* registry = batch[static_cast<size_t>(i)].registry;
      auto it = groups.begin();
      for (; it != groups.end(); ++it) {
        if (it->first == registry) break;
      }
      if (it == groups.end()) {
        groups.emplace_back(registry, std::vector<int>{});
        it = groups.end() - 1;
      }
      it->second.push_back(i);
    }

    for (auto& [registry, members] : groups) {
      const std::shared_ptr<const ModelRegistry::Snapshot> snapshot =
          registry->Acquire();
      if (registry != cached_registry || snapshot->epoch != cached_epoch) {
        CEWS_TRACE_SCOPE("serve.swap_in");
        // Int8 workers serve the snapshot's immutable quantized bundle in
        // place — swap-in is just the cache update plus the flight event;
        // only the fp32 path pays the parameter copy.
        if (int8_path) {
          CEWS_CHECK(snapshot->quant != nullptr);
        } else {
          nn::CopyParameters(snapshot->params, net_params);
        }
        cached_registry = registry;
        cached_epoch = snapshot->epoch;
        obs::FlightRecorder::Global().Record(
            obs::FlightEventKind::kEpochSwap, nullptr, config_.shard_index,
            static_cast<int64_t>(snapshot->epoch));
      }

      const int n = static_cast<int>(members.size());
      batches->Increment();
      batch_size_hist->Record(static_cast<uint64_t>(n));

      states.resize(static_cast<size_t>(n) * state_size);
      deterministic.resize(static_cast<size_t>(n));
      bool any_mask = false;
      for (const int m : members) {
        if (!batch[static_cast<size_t>(m)].request.move_mask.empty()) {
          any_mask = true;
        }
      }
      // Absent masks default to all-valid so masked and unmasked requests
      // can share one batch.
      if (any_mask) masks.assign(static_cast<size_t>(n) * mask_size, 1);

      {
        CEWS_TRACE_SCOPE("serve.encode");
        for (int i = 0; i < n; ++i) {
          const ScheduleRequest& request =
              batch[static_cast<size_t>(members[static_cast<size_t>(i)])]
                  .request;
          float* slice = states.data() + static_cast<size_t>(i) * state_size;
          if (!request.state.empty()) {
            std::memcpy(slice, request.state.data(),
                        sizeof(float) * static_cast<size_t>(state_size));
          } else {
            encoder_.EncodeInto(*request.env, slice);
          }
          if (any_mask && !request.move_mask.empty()) {
            std::memcpy(masks.data() + static_cast<size_t>(i) * mask_size,
                        request.move_mask.data(),
                        static_cast<size_t>(mask_size));
          }
          deterministic[static_cast<size_t>(i)] =
              request.deterministic ? 1 : 0;
        }
      }

      const uint64_t encode_end_ns = tracing ? Stopwatch::NowNs() : 0;

      std::vector<agents::PolicyDecision> decisions;
      {
        CEWS_TRACE_SCOPE("serve.forward");
        if (int8_path) {
          // Quantized forward on the shared bundle, then the exact same
          // decision protocol (mask, sample, Rng order) as fp32.
          const agents::QuantPolicyOutput out = agents::QuantPolicyForward(
              config_.net, *snapshot->quant, states.data(), n);
          decisions = agents::DecideFromLogits(
              config_.net, out.move_logits.data(), out.charge_logits.data(),
              out.value.data(), n, sample_rng, deterministic.data(),
              any_mask ? masks.data() : nullptr);
        } else {
          decisions = agents::DecidePolicyBatch(
              net, states, n, sample_rng, deterministic.data(),
              any_mask ? masks.data() : nullptr);
        }
      }

      // Doubles as the forward-phase end timestamp when tracing.
      const uint64_t now_ns = Stopwatch::NowNs();
      for (int i = 0; i < n; ++i) {
        PendingRequest& item =
            batch[static_cast<size_t>(members[static_cast<size_t>(i)])];
        agents::PolicyDecision& decision = decisions[static_cast<size_t>(i)];
        ScheduleResponse response;
        response.epoch = snapshot->epoch;
        response.act = std::move(decision.act);
        response.move_logits = std::move(decision.move_logits);
        response.charge_logits = std::move(decision.charge_logits);
        response.batch_size = n;
        response.latency_ns = now_ns - item.enqueue_ns;
        response.shard = config_.shard_index;
        // Metrics charge from the client-declared arrival when one was
        // stamped (see ScheduleRequest::arrival_ns): the windowed gauges
        // then measure the same scheduled-arrival-to-completion interval
        // the open-loop load generator reports, with no coordinated
        // omission. min() guards against a client arriving "late" on a
        // skewed stamp producing an underflowed latency.
        const uint64_t charged_from =
            item.request.arrival_ns != 0
                ? std::min(item.request.arrival_ns, item.enqueue_ns)
                : item.enqueue_ns;
        const uint64_t metric_latency_ns = now_ns - charged_from;
        latency_hist->Record(metric_latency_ns);
        latency_hist_->Record(metric_latency_ns);
        rolling_latency_->Record(metric_latency_ns);
        if (fleet_rolling_latency_ != nullptr) {
          fleet_rolling_latency_->Record(metric_latency_ns);
        }
        item.promise.set_value(std::move(response));
      }

      // Per-request lifecycle spans, tagged (request id, shard) so one
      // request's phases line up across threads in the Chrome trace.
      // Emitted after the promises resolve — the client sees its response
      // no later than without tracing. item.request stays valid here:
      // set_value consumed only the response.
      if (tracing) {
        const uint64_t scatter_end_ns = Stopwatch::NowNs();
        const int64_t shard = config_.shard_index;
        for (const int m : members) {
          const PendingRequest& item = batch[static_cast<size_t>(m)];
          const uint64_t id = item.request.trace.id;
          if (id == 0) continue;  // submitted before tracing flipped on
          obs::internal::RecordSpanArgs("serve.queue_wait", item.enqueue_ns,
                                        pop_ns, id, shard);
          obs::internal::RecordSpanArgs("serve.batch_assemble", pop_ns,
                                        encode_end_ns, id, shard);
          obs::internal::RecordSpanArgs("serve.forward", encode_end_ns,
                                        now_ns, id, shard);
          obs::internal::RecordSpanArgs("serve.scatter", now_ns,
                                        scatter_end_ns, id, shard);
        }
      }
    }
  }
}

}  // namespace cews::serve
