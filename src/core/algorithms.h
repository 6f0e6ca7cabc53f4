// Uniform runner over the five compared algorithms (Section VII-B), used by
// every figure/table benchmark: train (when learning-based) and evaluate on
// the same map instance.
#ifndef CEWS_CORE_ALGORITHMS_H_
#define CEWS_CORE_ALGORITHMS_H_

#include <string>
#include <vector>

#include "agents/trainer_config.h"
#include "agents/eval.h"
#include "env/env.h"
#include "env/map.h"

namespace cews::core {

/// The five compared approaches.
enum class Algorithm { kDrlCews, kDppo, kEdics, kDnc, kGreedy };

/// Display name as used in the paper's figures.
std::string AlgorithmName(Algorithm algorithm);

/// All five, in the paper's legend order.
std::vector<Algorithm> AllAlgorithms();

/// Knobs shared by the benchmark harnesses. Defaults are the quick-mode
/// scaled-down settings; paper-scale runs raise episodes/employees/batch.
struct BenchmarkOptions {
  /// Training episodes for DRL algorithms.
  int episodes = 120;
  /// Employee threads for the distributed trainers.
  int num_employees = 4;
  /// Update minibatch size.
  int batch_size = 125;
  /// Intra-op NN kernel threads (TrainerConfig::runtime_threads); 1 keeps
  /// kernels serial, 0 = hardware cores, CEWS_NUM_THREADS overrides.
  int runtime_threads = 1;
  /// Env instances per employee on the vectorized acting path
  /// (TrainerConfig::envs_per_employee); 1 ≡ the legacy single-env loop.
  int envs_per_employee = 1;
  /// PPO epochs K per episode.
  int update_epochs = 6;
  /// Evaluation episodes averaged for the reported metrics.
  int eval_episodes = 3;
  uint64_t seed = 1;
  /// State-grid resolution (also sets the CNN input size).
  int grid = 16;
  /// Scaled-down network for quick mode.
  agents::PolicyNetConfig net = MakeBenchNet();

  // Learning hyperparameters tuned for short quick-mode runs (paper-scale
  // runs override some of these; see bench/bench_util.h). The reward scale
  // keeps discounted returns O(1) so the value head can track them within a
  // few hundred episodes on short horizons.
  float lr = 3e-3f;
  float gamma = 0.95f;
  float reward_scale = 0.1f;
  float curiosity_lr = 3e-4f;
  float curiosity_eta = 0.5f;
  /// The paper's sparse-reward milestone (Section VII-A).
  double epsilon1 = 0.05;

  static agents::PolicyNetConfig MakeBenchNet() {
    agents::PolicyNetConfig net;
    net.conv1_channels = 6;
    net.conv2_channels = 8;
    net.conv3_channels = 8;
    net.feature_dim = 128;
    return net;
  }
};

/// Builds the TrainerConfig for one of the distributed DRL algorithms
/// (kDrlCews or kDppo) under the given bench options.
agents::TrainerConfig MakeTrainerConfig(Algorithm algorithm,
                                        const env::EnvConfig& env_config,
                                        const BenchmarkOptions& options);

/// Trains (if applicable) and evaluates `algorithm` on the scenario.
agents::EvalResult RunAlgorithm(Algorithm algorithm, const env::Map& map,
                                const env::EnvConfig& env_config,
                                const BenchmarkOptions& options);

}  // namespace cews::core

#endif  // CEWS_CORE_ALGORITHMS_H_
