// cews::dist — multi-process chief/employee training (DESIGN.md §7).
//
// Roles:
//   - Employees are pure rollout actors: each is the in-process trainer's
//     employee (agents::Employee, agents/employee.h) — the same models,
//     seeds, environments, rollout Rng and intrinsic observer — and ships
//     its GAE-finished buffers (plus curiosity samples and episode stats)
//     to the chief.
//   - The chief is the single learner: it broadcasts the global parameters
//     each iteration, merges the employee payloads in canonical rank order,
//     and takes every minibatch gradient itself, with the in-process
//     employee's routine (agents::MinibatchGradient), then steps.
//
// Determinism: given a fixed employee count N, a fixed seed, and the exact
// float round-trip of the wire format (dist/wire.h), a distributed run is
// bitwise-identical to TrainDistReference — the same EmployeeCore and
// LearnerCore objects driven in rank order inside one process with no
// sockets. The equivalence holds by construction: rank-ordered merge fixes
// the transition order, the broadcast fixes every actor's parameters, and
// each rank's seeds come from the shared agents::Employee. Note the learning
// semantics intentionally differ from ChiefEmployeeTrainer: that trainer
// sums per-employee gradients; this one trains on the merged transition
// pool with a single learner (one gradient per minibatch, clipped at
// ppo.max_grad_norm, not N * max_grad_norm).
//
// Fork mode (SpawnEmployees): for tests, CI smoke and single-host bench
// runs, the employees are forked from the launching process. Children must
// be forked BEFORE any threads exist (CHECK: keep runtime_threads = 1 and
// create the serving fleet only after spawning); each child runs
// EmployeeClient::Run and _exits without returning.
#ifndef CEWS_DIST_TRAINER_H_
#define CEWS_DIST_TRAINER_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "agents/curiosity.h"
#include "agents/employee.h"
#include "agents/ppo.h"
#include "agents/trainer_config.h"
#include "common/result.h"
#include "dist/channel.h"
#include "dist/wire.h"
#include "env/map.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "nn/optimizer.h"

namespace cews::dist {

class DeployLoop;

/// Configuration of one distributed run: the full trainer config (episodes
/// double as distributed iterations; num_employees is the employee process
/// count) plus transport knobs.
struct DistTrainerConfig {
  agents::TrainerConfig trainer;

  /// Transport address ("unix:<path>" or "tcp:<ip>:<port>", channel.h).
  std::string address = "unix:/tmp/cews_dist.sock";

  /// Total dial budget of an employee connecting to a chief that may not
  /// have bound its socket yet (exponential backoff underneath).
  int dial_timeout_ms = 15000;
  /// Silence budget of the handshake (hello/welcome) exchanges.
  int handshake_timeout_ms = 15000;
  /// Per-peer liveness window: a peer silent for this long is declared
  /// dead (DeadlineExceeded), which aborts training — the fixed-N
  /// determinism contract has no re-balancing path. Must comfortably cover
  /// one full rollout + learn, since single-threaded peers cannot
  /// heartbeat mid-computation.
  int liveness_timeout_ms = 120000;

  /// Optional warm-start checkpoint the chief loads into the global policy
  /// before the first broadcast (CRC-checked by nn::LoadParameters, so no
  /// unverified file is fanned out to the employees). Employees never read
  /// it — they get the values via the broadcast.
  std::string init_checkpoint;
};

/// Everything a distributed (or reference) run produced. `final_policy` /
/// `final_intrinsic` are the flat global parameter values after the last
/// iteration — what the equivalence test compares bitwise.
struct DistTrainResult {
  std::vector<agents::EpisodeRecord> history;
  double seconds = 0.0;
  std::vector<float> final_policy;
  std::vector<float> final_intrinsic;
  /// Chief-side transport totals (all employee channels, frame overhead
  /// included). Zero for TrainDistReference.
  uint64_t bytes_tx = 0;
  uint64_t bytes_rx = 0;
};

/// The trainers' one dependent-dimension autofill. Chief and employees
/// must hash and build from the SAME normalized config — call this once at
/// every entry point.
using agents::NormalizeConfig;

/// One employee process's state: the shared agents::Employee plus its wire
/// conversion. Pure actor — never updates parameters itself.
class EmployeeCore {
 public:
  /// `config` must already be normalized. The frozen intrinsic parts
  /// (curiosity embedding, RND target) replicate across processes through
  /// the shared seeds without ever crossing the wire.
  EmployeeCore(const agents::TrainerConfig& config, const env::Map& map,
               int rank);

  /// Overwrites the local trainable parameters with a broadcast.
  void SetParams(const ParamUpdate& update);

  /// One full iteration: the employee's rollout (Employee::Rollout). The
  /// result is what goes on the wire (or straight to the reference
  /// learner).
  RolloutPayload RunIteration(uint64_t iteration);

  int rank() const { return employee_.rank(); }

 private:
  agents::Employee employee_;
};

/// The chief's single-learner state: global models, optimizers, learner
/// rng. Consumes merged rollouts; produces parameter broadcasts.
class LearnerCore {
 public:
  explicit LearnerCore(const agents::TrainerConfig& config);

  /// Flat snapshot of the current trainable parameters.
  ParamUpdate CurrentParams(uint64_t iteration) const;

  /// `update_epochs` rounds of minibatch updates on the merged pool: per
  /// round one agents::MinibatchGradient on the learner rng, then the
  /// intrinsic and PPO Adam steps. Returns the last round's loss stats.
  agents::LossStats Learn(const agents::RolloutBuffer& buffer,
                          const std::vector<agents::CuriositySample>& samples);

  const agents::PolicyNet& net() const { return models_.agent.net(); }

  /// Warm-start load into the global policy. See
  /// DistTrainerConfig::init_checkpoint.
  Status LoadPolicy(const std::string& path);

 private:
  agents::TrainerConfig config_;
  agents::ModelSet models_;
  std::unique_ptr<nn::Adam> intrinsic_optimizer_;
  Rng rng_;
};

/// Rank-ordered merge of one iteration's employee payloads: buffers
/// concatenate rank-major (rank 0's instances first), curiosity samples
/// likewise, stats sum. CHECK-fails unless payloads[i].rank == i — the
/// canonical order IS the determinism argument, so a mis-ordered call is a
/// bug, not data.
struct MergedRollout {
  agents::RolloutBuffer buffer;
  std::vector<agents::CuriositySample> samples;
  RolloutStats totals;  ///< Sums over employees (kappa/xi/rho summed too).
};
MergedRollout MergeRollouts(std::vector<RolloutPayload> payloads);

/// Single-process reference semantics: the same EmployeeCore/LearnerCore
/// objects driven in rank order with no transport. The distributed run
/// must match this bitwise — that is what dist_trainer_equivalence_test
/// asserts.
Result<DistTrainResult> TrainDistReference(const DistTrainerConfig& config,
                                           const env::Map& map);

/// The chief process: accepts trainer.num_employees employees, drives the
/// broadcast/merge/learn loop, and (optionally) runs the publish gate.
class ChiefServer {
 public:
  ChiefServer(const DistTrainerConfig& config, env::Map map);

  /// Binds the listener. Separate from Run so callers using "tcp:...:0"
  /// can read the resolved address() before employees dial.
  Status Bind();
  const std::string& address() const { return bound_address_; }

  /// Accepts all employees, runs every iteration, shuts employees down.
  /// `deploy` (may be null) gets MaybePublish after each iteration.
  /// Any employee failure (handshake mismatch, liveness timeout, corrupt
  /// frame, a rollout that does not fit the config — ValidateRollout)
  /// aborts the run with the underlying error.
  Status Run(DistTrainResult* result, DeployLoop* deploy = nullptr);

 private:
  DistTrainerConfig config_;
  env::Map map_;
  Listener listener_;
  std::string bound_address_;
};

/// One employee process: dials the chief, handshakes, then loops
/// params -> rollout until the chief says shutdown.
class EmployeeClient {
 public:
  EmployeeClient(const DistTrainerConfig& config, env::Map map, int rank);
  Status Run();

 private:
  DistTrainerConfig config_;
  env::Map map_;
  int rank_ = 0;
};

/// Forks trainer.num_employees child processes, each running
/// EmployeeClient(rank).Run() and _exit-ing with 0/1. MUST be called while
/// the process is still single-threaded (before any fleet, reporter or
/// kernel pool threads exist) — a forked child of a multi-threaded process
/// inherits a poisoned lock state.
Result<std::vector<pid_t>> SpawnEmployees(const DistTrainerConfig& config,
                                          const env::Map& map);

/// waitpid()s every child; non-zero/abnormal exits become an error naming
/// the rank.
Status ReapEmployees(const std::vector<pid_t>& pids);

}  // namespace cews::dist

#endif  // CEWS_DIST_TRAINER_H_
