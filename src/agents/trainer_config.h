// The training configuration and the results every trainer reports: the
// chief-employee trainers (agents/chief_employee.h, dist/trainer.h), the
// asynchronous ablation (agents/async_trainer.h) and the baselines share
// these types without depending on any trainer.
#ifndef CEWS_AGENTS_TRAINER_CONFIG_H_
#define CEWS_AGENTS_TRAINER_CONFIG_H_

#include <string>
#include <vector>

#include "agents/curiosity.h"
#include "agents/policy_net.h"
#include "agents/ppo.h"
#include "agents/rnd.h"
#include "env/env.h"
#include "env/state_encoder.h"

namespace cews::agents {

/// Which extrinsic reward the agent trains on (Fig. 5 compares all four
/// combinations of {dense, sparse} x {with, without curiosity}).
enum class RewardMode { kSparse, kDense };

/// Which intrinsic-reward module augments the extrinsic reward.
enum class IntrinsicMode { kNone, kSpatialCuriosity, kRnd };

/// Full training configuration.
struct TrainerConfig {
  /// Number of employee threads (Table II sweeps 1..16; paper picks 8).
  int num_employees = 8;
  /// Training episodes (each episode is synchronized across employees).
  int episodes = 200;
  /// Minibatch size per update round (Table II sweeps 50..500; paper: 250).
  int batch_size = 250;
  /// Update rounds K per episode (Algorithm 1, line 17).
  int update_epochs = 4;

  /// Intra-op worker threads for the NN kernel runtime
  /// (common/thread_pool.h), shared process-wide by all employees. 1 keeps
  /// kernels serial (default); 0 sizes the pool to the hardware cores. The
  /// CEWS_NUM_THREADS environment variable overrides either. Kernel results
  /// are bitwise-identical at any setting.
  int runtime_threads = 1;

  /// Environment instances each employee drives through the vectorized
  /// acting path (env::VecEnv + one batched Forward per lockstep step).
  /// 1 reproduces the legacy single-env employee bitwise; larger values
  /// collect envs_per_employee episodes per training episode and batch
  /// their action selection, which is where the intra-op kernel runtime
  /// pays off during rollouts.
  int envs_per_employee = 1;

  PolicyNetConfig net;
  PpoConfig ppo;

  IntrinsicMode intrinsic = IntrinsicMode::kSpatialCuriosity;
  CuriosityConfig curiosity;  // num_cells/num_moves/num_workers auto-filled
  RndConfig rnd;              // state_size auto-filled
  /// When false the intrinsic module is still trained and its values are
  /// recorded (heat maps), but the reward the agent optimizes excludes
  /// r^int. Used to visualize curiosity under DPPO (Fig. 9, bottom row).
  bool add_intrinsic_to_reward = true;

  /// Multiplies the stored training reward (extrinsic + intrinsic). Keeps
  /// discounted returns O(1) so the value head tracks them within a short
  /// training budget; metrics and reported rewards are unscaled.
  float reward_scale = 1.0f;

  /// When true, replaces the fixed reward_scale with adaptive scaling by
  /// the running std of the discounted return (reward_normalizer.h).
  bool normalize_rewards = false;

  RewardMode reward_mode = RewardMode::kSparse;
  env::EnvConfig env;
  env::StateEncoderConfig encoder;
  uint64_t seed = 1;

  /// Log a one-line training heartbeat (episodes/s, steps/s, loss, kappa,
  /// xi, rho, pool utilization) every this many seconds while Train() runs
  /// (obs/stats_reporter.h). <= 0 disables.
  double heartbeat_seconds = 0.0;

  /// Record a curiosity heat-map snapshot every this many episodes
  /// (0 disables; used by the Fig. 9 bench).
  int heatmap_snapshot_every = 0;

  /// Periodically save the global policy parameters for offline testing
  /// ("the parameters in DNNs are periodically saved", Section VI-D).
  /// 0 disables. Files are "<checkpoint_prefix><episode>.bin".
  int checkpoint_every = 0;
  std::string checkpoint_prefix = "cews_ckpt_";
};

/// Per-episode training diagnostics, averaged over employees.
struct EpisodeRecord {
  int episode = 0;
  double kappa = 0.0;
  double xi = 1.0;
  double rho = 0.0;
  double extrinsic_reward = 0.0;  // mean per step
  double intrinsic_reward = 0.0;  // mean per step
  double wall_seconds = 0.0;      // mean employee wall time for the episode
  double steps_per_sec = 0.0;     // total env steps (all employees) / wall
};

/// Mean intrinsic reward per visited cell over a training window (Fig. 9).
struct HeatmapSnapshot {
  int episode = 0;
  std::vector<double> cell_values;  // grid*grid, 0 where unvisited
};

/// Everything Train() produces.
struct TrainResult {
  std::vector<EpisodeRecord> history;
  double seconds = 0.0;  ///< Wall-clock training time (Fig. 3).
};

}  // namespace cews::agents

#endif  // CEWS_AGENTS_TRAINER_CONFIG_H_
