// The DPPO baseline (Heess et al. 2017; Section VII-B): the same distributed
// chief-employee PPO, trained on the dense reward (Eqn 20) with per-batch
// advantage normalization, 8 employees and batch size 250 — and no curiosity.
#ifndef CEWS_BASELINES_DPPO_H_
#define CEWS_BASELINES_DPPO_H_

#include "agents/trainer_config.h"

namespace cews::baselines {

/// Builds the DPPO trainer configuration on top of a base config: dense
/// reward, no intrinsic module, the paper's 8 employees / batch 250 (both
/// still overridable afterwards for scaled-down runs).
inline agents::TrainerConfig MakeDppoConfig(agents::TrainerConfig base) {
  base.reward_mode = agents::RewardMode::kDense;
  base.intrinsic = agents::IntrinsicMode::kNone;
  base.num_employees = 8;
  base.batch_size = 250;
  base.ppo.normalize_advantages = true;
  return base;
}

}  // namespace cews::baselines

#endif  // CEWS_BASELINES_DPPO_H_
