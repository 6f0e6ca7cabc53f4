// cews::dist — the gated train→deploy publish loop (DESIGN.md §7).
//
// Every `publish_every` iterations the chief's candidate policy is
// evaluated (EvaluatePolicyVec, its own rng — the learner's random stream
// is never touched, so enabling/disabling publishing cannot change training
// results), scored by mean kappa, and compared against the LAST PUBLISHED
// score: a candidate that regressed by more than `min_delta` is rejected
// and the fleet keeps serving the previous snapshot. An accepted candidate
// is crash-safe-saved (nn::SaveParameters tmp+rename) and published into
// the live serve::Fleet from that file — the serving path only ever loads
// what the CRC check passed.
#ifndef CEWS_DIST_DEPLOY_LOOP_H_
#define CEWS_DIST_DEPLOY_LOOP_H_

#include <memory>
#include <string>

#include "agents/trainer_config.h"
#include "agents/policy_net.h"
#include "common/rng.h"
#include "common/status.h"
#include "env/map.h"
#include "env/state_encoder.h"
#include "env/vec_env.h"
#include "serve/fleet.h"

namespace cews::dist {

struct DeployOptions {
  /// Gate cadence: evaluate + maybe publish after iterations
  /// publish_every-1, 2*publish_every-1, ... (i.e. every K-th). >= 1.
  int publish_every = 5;
  /// Scenario the snapshot publishes into.
  std::string scenario = serve::ScenarioRegistry::kDefaultScenario;
  /// Checkpoint file the accepted candidates are saved to (rewritten in
  /// place, crash-safe, each acceptance).
  std::string snapshot_path = "cews_deploy_snapshot.bin";
  /// Evaluation episodes per gate (vectorized instances).
  int eval_envs = 2;
  /// Seed of the gate's private eval rng.
  uint64_t eval_seed = 12345;
  /// Greedy (argmax) actions during eval — lower-variance gate scores.
  bool deterministic_eval = true;
  /// Tolerated regression vs the last published score: accept iff
  /// score >= published_score - min_delta. 0 = monotone non-decreasing.
  double min_delta = 0.0;
  /// Int8 fleets only: minimum fp32-vs-int8 action-agreement rate
  /// (agents::ProbeActionAgreement over a short greedy rollout) a
  /// candidate must clear in ADDITION to the score gate. A
  /// candidate whose quantization flips more than 1 - agreement_min of the
  /// argmax decisions is rejected — the fleet keeps serving the previous
  /// snapshot. Ignored by fp32 fleets.
  double agreement_min = 0.99;
};

/// The eval gate + publisher. Not thread-safe; driven from the chief's
/// training loop (ChiefServer::Run calls MaybePublish each iteration).
class DeployLoop {
 public:
  /// `config` must already be normalized (dist::NormalizeConfig); the eval
  /// environments replicate its env/encoder setup on `map`. `fleet` is the
  /// live serving fleet published into; must be non-null and outlive this.
  DeployLoop(const DeployOptions& options,
             const agents::TrainerConfig& config, const env::Map& map,
             serve::Fleet* fleet);

  /// Called after every training iteration with the current global net.
  /// Off-cadence iterations return OK immediately. On-cadence: evaluate,
  /// gate, and on acceptance save + publish. A rejected candidate is OK
  /// (the gate worked); save/publish failures are errors.
  Status MaybePublish(int iteration, const agents::PolicyNet& net);

  int accepted() const { return accepted_; }
  int rejected() const { return rejected_; }
  /// Mean kappa of the last published snapshot (meaningful once
  /// accepted() > 0).
  double published_score() const { return published_score_; }

 private:
  DeployOptions options_;
  env::StateEncoder encoder_;
  std::unique_ptr<env::VecEnv> eval_vec_;
  Rng eval_rng_;
  serve::Fleet* fleet_;
  double published_score_ = 0.0;
  bool has_published_ = false;
  int accepted_ = 0;
  int rejected_ = 0;
};

}  // namespace cews::dist

#endif  // CEWS_DIST_DEPLOY_LOOP_H_
