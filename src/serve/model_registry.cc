#include "serve/model_registry.h"

#include <string>
#include <utility>

#include "agents/quant_policy.h"
#include "common/check.h"
#include "nn/serialize.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cews::serve {

namespace {

std::vector<nn::Tensor> CloneParams(const std::vector<nn::Tensor>& params) {
  std::vector<nn::Tensor> clones;
  clones.reserve(params.size());
  for (const nn::Tensor& t : params) clones.push_back(t.Clone());
  return clones;
}

}  // namespace

ModelRegistry::ModelRegistry(const std::vector<nn::Tensor>& initial,
                             bool quantize)
    : quantize_(quantize) {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = 0;
  snapshot->params = CloneParams(initial);
  if (quantize_) {
    snapshot->quant = std::make_shared<const nn::quant::QuantizedParams>(
        agents::QuantizePolicyParams(snapshot->params));
  }
  current_ = std::move(snapshot);
}

std::shared_ptr<const ModelRegistry::Snapshot> ModelRegistry::Acquire()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Status ModelRegistry::Publish(const std::vector<nn::Tensor>& params) {
  CEWS_TRACE_SCOPE("serve.publish");
  const std::shared_ptr<const Snapshot> reference = Acquire();
  if (params.size() != reference->params.size()) {
    return Status::InvalidArgument(
        "Publish: parameter count mismatch (" +
        std::to_string(params.size()) + " vs " +
        std::to_string(reference->params.size()) + ")");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i].defined()) {
      return Status::InvalidArgument("Publish: undefined tensor at index " +
                                     std::to_string(i));
    }
    if (params[i].shape() != reference->params[i].shape()) {
      return Status::InvalidArgument(
          "Publish: shape mismatch at index " + std::to_string(i) + ", " +
          nn::ShapeToString(params[i].shape()) + " vs " +
          nn::ShapeToString(reference->params[i].shape()));
    }
  }
  // Clone (and quantize) outside the writer lock — only the epoch
  // assignment and pointer swap are serialized. Quantization is the
  // publish-time amortization: it runs once here, per epoch, so the int8
  // inference hot path never quantizes or packs a weight.
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->params = CloneParams(params);
  if (quantize_) {
    snapshot->quant = std::make_shared<const nn::quant::QuantizedParams>(
        agents::QuantizePolicyParams(snapshot->params));
  }
  uint64_t published_epoch = 0;
  std::shared_ptr<const Snapshot> previous;  // released outside the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    published_epoch = current_->epoch + 1;
    snapshot->epoch = published_epoch;
    previous = std::exchange(current_, std::move(snapshot));
    epoch_.store(published_epoch, std::memory_order_relaxed);
  }
  static obs::Counter* const swaps = obs::GetCounter("serve.hot_swaps");
  static obs::Gauge* const epoch_gauge = obs::GetGauge("serve.epoch");
  swaps->Increment();
  epoch_gauge->Set(static_cast<double>(published_epoch));
  obs::FlightRecorder::Global().Record(
      obs::FlightEventKind::kPublish, nullptr, /*a=*/0,
      static_cast<int64_t>(published_epoch));
  return Status::OK();
}

Status ModelRegistry::PublishFromFile(const std::string& path) {
  // Load into a scratch clone of the current snapshot: shapes are checked
  // by LoadParameters against a real parameter set, and a corrupt file
  // leaves the served model untouched.
  const std::shared_ptr<const Snapshot> snapshot = Acquire();
  std::vector<nn::Tensor> scratch = CloneParams(snapshot->params);
  CEWS_RETURN_IF_ERROR(nn::LoadParameters(path, scratch));
  return Publish(scratch);
}

ScenarioRegistry::ScenarioRegistry(const std::vector<std::string>& scenarios,
                                   const std::vector<nn::Tensor>& initial,
                                   bool quantize)
    : quantize_(quantize) {
  CEWS_CHECK(!scenarios.empty()) << "ScenarioRegistry needs >= 1 scenario";
  for (const std::string& name : scenarios) {
    CEWS_CHECK(!name.empty()) << "scenario names must be non-empty";
    CEWS_CHECK(registries_.count(name) == 0)
        << "duplicate scenario '" << name << "'";
    names_.push_back(name);
    registries_.emplace(name,
                        std::make_unique<ModelRegistry>(initial, quantize));
  }
}

ModelRegistry* ScenarioRegistry::Find(const std::string& scenario) const {
  if (scenario.empty()) {
    const auto it = registries_.find(kDefaultScenario);
    if (it != registries_.end()) return it->second.get();
    if (registries_.size() == 1) return registries_.begin()->second.get();
    return nullptr;
  }
  const auto it = registries_.find(scenario);
  return it == registries_.end() ? nullptr : it->second.get();
}

Status ScenarioRegistry::Publish(const std::string& scenario,
                                 const std::vector<nn::Tensor>& params) {
  ModelRegistry* registry = Find(scenario);
  if (registry == nullptr) {
    return Status::NotFound("unknown scenario '" + scenario + "'");
  }
  return registry->Publish(params);
}

Status ScenarioRegistry::PublishFromFile(const std::string& scenario,
                                         const std::string& path) {
  ModelRegistry* registry = Find(scenario);
  if (registry == nullptr) {
    return Status::NotFound("unknown scenario '" + scenario + "'");
  }
  return registry->PublishFromFile(path);
}

Result<uint64_t> ScenarioRegistry::Epoch(const std::string& scenario) const {
  const ModelRegistry* registry = Find(scenario);
  if (registry == nullptr) {
    return Status::NotFound("unknown scenario '" + scenario + "'");
  }
  return registry->epoch();
}

}  // namespace cews::serve
