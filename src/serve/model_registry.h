// cews::serve — model hot-swap, single- and multi-scenario.
//
// ModelRegistry decouples parameter publication (a trainer finishing an
// update round, or a checkpoint watcher reloading from disk) from inference
// (server workers running batched Forwards): Publish() clones the new
// parameter values into an immutable snapshot outside any lock, then swaps
// the current pointer under a mutex; Acquire() copies the pointer under the
// same mutex, once per batch on the inference hot path. The lock covers
// only a pointer copy or swap, never a clone, a quantization or a
// snapshot's destruction. A request is served entirely by the snapshot
// captured at dequeue time, so a swap can never expose a torn
// half-old/half-new parameter set, and publication never waits for
// in-flight inference.
//
// ScenarioRegistry maps scenario names ("cities") to independent
// ModelRegistry instances. The name set is fixed at construction, so Find()
// needs no lock on the hot path — only each registry's own mutex. One
// serving fleet holds one ScenarioRegistry shared by every shard: publishing
// scenario A's parameters can never perturb requests being served under
// scenario B, because they resolve to different ModelRegistry objects.
//
// Double-buffering argument (see DESIGN.md): snapshots are reference-
// counted, and servers pin a snapshot only for the duration of one batch.
// At steady state at most two parameter buffers are therefore live — the
// current snapshot and the previous one still finishing its last batches —
// after which the old buffer frees itself when its final reader drops it.
#ifndef CEWS_SERVE_MODEL_REGISTRY_H_
#define CEWS_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "nn/quant.h"
#include "nn/tensor.h"

namespace cews::serve {

class ModelRegistry {
 public:
  /// One published parameter set. `params` are deep copies, immutable after
  /// publication; epoch 0 is the registry's initial set, each Publish
  /// increments it by one.
  struct Snapshot {
    uint64_t epoch = 0;
    std::vector<nn::Tensor> params;
    /// Publish-time int8 bundle of `params` (nn/quant.h); non-null iff the
    /// registry was built with quantize=true. Built ONCE per Publish —
    /// inference workers read it in place, paying zero per-request
    /// quantization or pack cost for the weights.
    std::shared_ptr<const nn::quant::QuantizedParams> quant;
  };

  /// Clones `initial` as the epoch-0 snapshot. The list fixes the shapes
  /// every later Publish must match. With `quantize`, every snapshot
  /// (including epoch 0) also carries the int8 bundle.
  explicit ModelRegistry(const std::vector<nn::Tensor>& initial,
                         bool quantize = false);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The current snapshot (a pointer copy under the registry's mutex).
  /// The returned pointer keeps the snapshot alive for as long as the
  /// caller holds it, regardless of concurrent Publishes.
  std::shared_ptr<const Snapshot> Acquire() const;

  /// Clones `params` into a fresh snapshot and swaps it in as the current
  /// one. Concurrent publishers are serialized against each other; readers
  /// wait at most for the pointer swap. Shapes must match the initial set
  /// pairwise —
  /// returns InvalidArgument otherwise, leaving the current snapshot
  /// untouched.
  Status Publish(const std::vector<nn::Tensor>& params);

  /// Loads a checkpoint from disk into a scratch clone of the current
  /// snapshot (CRC- and shape-checked against a real parameter set; a
  /// corrupt file leaves the served model untouched) and publishes it.
  Status PublishFromFile(const std::string& path);

  /// Epoch of the current snapshot. A dedicated relaxed counter, NOT an
  /// Acquire(): polling the epoch (admission checks, worker staleness
  /// probes, CLI display) must not bump the snapshot refcount — that is a
  /// contended RMW on the control-block cache line shared with the
  /// inference hot path.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Whether snapshots carry the int8 bundle.
  bool quantizes() const { return quantize_; }

 private:
  /// Guards current_. A plain shared_ptr behind a mutex rather than
  /// std::atomic<std::shared_ptr>: GCC 12 guards the atomic with a lock bit
  /// ThreadSanitizer cannot see, so TSan reported Publish/Acquire races.
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  /// Mirrors current_->epoch; updated under mu_ in Publish.
  std::atomic<uint64_t> epoch_{0};
  const bool quantize_ = false;
};

/// Immutable name -> ModelRegistry map: one hot-swappable parameter stream
/// per named scenario. All scenarios share one architecture (`initial`
/// fixes the shapes) and each starts at an independent epoch 0.
class ScenarioRegistry {
 public:
  /// The scenario a request with an empty scenario tag resolves to.
  static constexpr const char* kDefaultScenario = "default";

  /// One registry per name, each seeded with a clone of `initial`.
  /// `scenarios` must be non-empty, with unique non-empty names
  /// (CHECK-enforced; Fleet::Create validates user input first). With
  /// `quantize`, every registry builds the int8 bundle at each publish
  /// (int8 serving fleets).
  ScenarioRegistry(const std::vector<std::string>& scenarios,
                   const std::vector<nn::Tensor>& initial,
                   bool quantize = false);

  ScenarioRegistry(const ScenarioRegistry&) = delete;
  ScenarioRegistry& operator=(const ScenarioRegistry&) = delete;

  /// The registry for `scenario` ("" resolves to kDefaultScenario if
  /// registered, else to the sole scenario when only one exists), or
  /// nullptr for an unknown name. Lock-free: the map is immutable after
  /// construction.
  ModelRegistry* Find(const std::string& scenario) const;

  /// Publish into one scenario; NotFound for unknown names.
  Status Publish(const std::string& scenario,
                 const std::vector<nn::Tensor>& params);
  Status PublishFromFile(const std::string& scenario,
                         const std::string& path);

  /// Epoch of one scenario's current snapshot; NotFound for unknown names.
  Result<uint64_t> Epoch(const std::string& scenario) const;

  /// Registered names, in registration order.
  const std::vector<std::string>& names() const { return names_; }

  /// Whether member registries carry int8 bundles.
  bool quantizes() const { return quantize_; }

 private:
  const bool quantize_ = false;
  std::vector<std::string> names_;
  std::map<std::string, std::unique_ptr<ModelRegistry>> registries_;
};

}  // namespace cews::serve

#endif  // CEWS_SERVE_MODEL_REGISTRY_H_
