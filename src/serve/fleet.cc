#include "serve/fleet.h"

#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace cews::serve {

namespace {

/// Per-shard metrics are named serve.shard.N.* — a hand-curated set with a
/// hard registry cap (obs::kMaxCounters), so the shard count is bounded
/// here rather than discovered as a CHECK failure mid-scale-out.
constexpr int kMaxShards = 64;

Status ValidateFleetConfig(const FleetConfig& config) {
  if (config.net.grid <= 0 || config.net.in_channels <= 0 ||
      config.net.num_workers <= 0 || config.net.num_moves <= 0) {
    return Status::InvalidArgument(
        "net dimensions must be positive (grid " +
        std::to_string(config.net.grid) + ", channels " +
        std::to_string(config.net.in_channels) + ", workers " +
        std::to_string(config.net.num_workers) + ", moves " +
        std::to_string(config.net.num_moves) + ")");
  }
  if (config.num_shards <= 0 || config.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards must be in [1, " + std::to_string(kMaxShards) +
        "], got " + std::to_string(config.num_shards));
  }
  if (config.threads_per_shard <= 0) {
    return Status::InvalidArgument(
        "threads_per_shard must be positive, got " +
        std::to_string(config.threads_per_shard));
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
  if (config.vnodes_per_shard <= 0) {
    return Status::InvalidArgument(
        "vnodes_per_shard must be positive, got " +
        std::to_string(config.vnodes_per_shard));
  }
  if (config.runtime_threads < 0) {
    return Status::InvalidArgument(
        "runtime_threads must be non-negative (0 = hardware cores), got " +
        std::to_string(config.runtime_threads));
  }
  if (config.scenarios.empty()) {
    return Status::InvalidArgument("scenarios must be non-empty");
  }
  std::set<std::string> seen;
  for (const std::string& name : config.scenarios) {
    if (name.empty()) {
      return Status::InvalidArgument("scenario names must be non-empty");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("duplicate scenario '" + name + "'");
    }
  }
  return Status::OK();
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

Result<std::unique_ptr<Fleet>> Fleet::Create(const FleetConfig& config) {
  CEWS_RETURN_IF_ERROR(ValidateFleetConfig(config));

  // Epoch-0 parameters shared by every scenario: a freshly initialized net
  // from the fleet seed (cloned per scenario by the registry).
  std::shared_ptr<ScenarioRegistry> scenarios;
  {
    Rng rng(config.seed);
    const agents::PolicyNet net(config.net, rng);
    scenarios = std::make_shared<ScenarioRegistry>(
        config.scenarios, net.Parameters(),
        /*quantize=*/config.precision == Precision::kInt8);
  }

  // Size the intra-op kernel pool once, before shard workers start issuing
  // ParallelFor regions (same contract as the trainers).
  runtime::SetGlobalPoolThreads(config.runtime_threads);

  std::unique_ptr<Fleet> fleet(new Fleet(config, std::move(scenarios)));
  static obs::Gauge* const shard_gauge = obs::GetGauge("serve.fleet.shards");
  shard_gauge->Set(static_cast<double>(config.num_shards));
  obs::FlightRecorder::Global().Record(obs::FlightEventKind::kNote,
                                       "fleet_create",
                                       /*a=*/config.num_shards,
                                       /*b=*/static_cast<int64_t>(
                                           config.scenarios.size()));
  return fleet;
}

Fleet::Fleet(const FleetConfig& config,
             std::shared_ptr<ScenarioRegistry> scenarios)
    : config_(config),
      scenarios_(std::move(scenarios)),
      router_(RouterConfig{config.num_shards, config.vnodes_per_shard}) {
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    shards_.emplace_back(new PolicyServer(config_, s, scenarios_));
  }
}

Fleet::~Fleet() { Stop(); }

void Fleet::Stop() {
  for (const std::unique_ptr<PolicyServer>& shard : shards_) shard->Stop();
}

std::future<ScheduleResponse> Fleet::Submit(ScheduleRequest request) {
  static obs::Counter* const routed = obs::GetCounter("serve.fleet.requests");
  const int shard = router_.ShardFor(request.client_id, request.scenario);
  routed->Increment();
  return shards_[static_cast<size_t>(shard)]->Submit(std::move(request));
}

Status Fleet::Publish(const std::string& scenario,
                      const std::vector<nn::Tensor>& params) {
  return scenarios_->Publish(scenario, params);
}

Status Fleet::PublishFromFile(const std::string& scenario,
                              const std::string& path) {
  return scenarios_->PublishFromFile(scenario, path);
}

Result<uint64_t> Fleet::Epoch(const std::string& scenario) const {
  return scenarios_->Epoch(scenario);
}

int Fleet::QueueDepth(int shard) const {
  CEWS_CHECK_GE(shard, 0);
  CEWS_CHECK_LT(shard, num_shards());
  return shards_[static_cast<size_t>(shard)]->QueueDepth();
}

}  // namespace cews::serve
