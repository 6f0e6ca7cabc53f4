#include "agents/ppo.h"

#include <algorithm>
#include <cmath>

#include "agents/eval.h"
#include "common/check.h"
#include "common/math_util.h"
#include "common/stopwatch.h"
#include "nn/ops.h"
#include "nn/params.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cews::agents {

PpoAgent::PpoAgent(const PolicyNetConfig& net_config,
                   const PpoConfig& ppo_config, uint64_t seed)
    : config_(ppo_config) {
  Rng rng(seed);
  net_ = std::make_unique<PolicyNet>(net_config, rng);
  optimizer_ = std::make_unique<nn::Adam>(net_->Parameters(), config_.lr);
}

ActResult PpoAgent::Act(const std::vector<float>& state, Rng& rng,
                        bool deterministic) const {
  return SamplePolicy(*net_, state, rng, deterministic);
}

float PpoAgent::Value(const std::vector<float>& state) const {
  nn::NoGradGuard no_grad;
  const PolicyNetConfig& cfg = net_->config();
  nn::Tensor x = nn::Tensor::FromData(
      {1, cfg.in_channels, cfg.grid, cfg.grid}, state);
  return net_->Forward(x).value.item();
}

nn::Tensor PpoAgent::ComputeLoss(MiniBatch batch, LossStats* stats) const {
  CEWS_TRACE_SCOPE("agents.PpoLoss");
  static obs::Histogram* const loss_ns = obs::GetHistogram("ppo.loss_ns");
  obs::ScopedTimerNs loss_timer(loss_ns);
  const PolicyNetConfig& cfg = net_->config();
  const nn::Index b = batch.batch;
  CEWS_CHECK_GT(b, 0) << "ComputeLoss on an empty minibatch";
  CEWS_CHECK_EQ(batch.state_size,
                nn::Index{cfg.in_channels} * cfg.grid * cfg.grid);
  CEWS_CHECK_EQ(batch.num_workers, cfg.num_workers);
  CEWS_CHECK_EQ(static_cast<nn::Index>(batch.advantages.size()), b)
      << "minibatch carries no advantages: run ComputeAdvantages on the "
         "rollout buffer before sampling";
  CEWS_CHECK_EQ(static_cast<nn::Index>(batch.returns.size()), b);

  // Per-batch advantage normalization (as DPPO; Section VII-B).
  if (config_.normalize_advantages && b > 1) {
    double mean = 0.0;
    for (float a : batch.advantages) mean += a;
    mean /= static_cast<double>(b);
    double var = 0.0;
    for (float a : batch.advantages) var += (a - mean) * (a - mean);
    var /= static_cast<double>(b);
    const float inv_std = 1.0f / (std::sqrt(static_cast<float>(var)) + 1e-8f);
    for (float& a : batch.advantages) {
      a = (a - static_cast<float>(mean)) * inv_std;
    }
  }

  // How many rows the policy net runs on.
  static obs::Counter* const minibatch_rows =
      obs::GetCounter("ppo.minibatch_rows");
  static obs::Counter* const distinct_rows =
      obs::GetCounter("ppo.distinct_rows");
  minibatch_rows->Add(static_cast<uint64_t>(b));

  // A minibatch larger than its buffer draws with replacement and repeats
  // transitions. The policy net then runs once per distinct transition,
  // numbered by first occurrence, with every gradient keeping its bytes
  // (nn/ops.h "RowMap"); the states compact to those rows in place, which
  // is safe in ascending order because first[u] >= u.
  nn::RowMapPtr rows;
  if (!batch.indices.empty()) {
    CEWS_CHECK_EQ(static_cast<nn::Index>(batch.indices.size()), b);
    rows = nn::RowMap::Number(batch.indices);
    if (rows->distinct() == b) rows = nullptr;
  }
  const nn::Index trunk_rows = rows != nullptr ? rows->distinct() : b;
  distinct_rows->Add(static_cast<uint64_t>(trunk_rows));
  if (rows != nullptr) {
    const nn::Index size = batch.state_size;
    float* states = batch.states.data();
    for (nn::Index u = 0; u < trunk_rows; ++u) {
      const nn::Index from = rows->first()[u];
      if (from != u) std::copy_n(states + from * size, size, states + u * size);
    }
    batch.states.resize(static_cast<size_t>(trunk_rows * size));
  }

  // The packed arrays are adopted wholesale — no per-transition gather.
  nn::Tensor x = nn::Tensor::FromData(
      {trunk_rows, cfg.in_channels, cfg.grid, cfg.grid},
      std::move(batch.states));
  const PolicyOutput out = net_->Forward(x, std::move(rows));

  nn::Tensor logp_old = nn::Tensor::FromData({b}, std::move(batch.log_probs));
  nn::Tensor advantage =
      nn::Tensor::FromData({b}, std::move(batch.advantages));
  nn::Tensor returns = nn::Tensor::FromData({b}, std::move(batch.returns));

  // Joint new log-prob: sum over workers of move + charge log-probs.
  nn::Tensor move_logp = nn::LogSoftmax(out.move_logits);    // [B, W, M]
  nn::Tensor charge_logp = nn::LogSoftmax(out.charge_logits);  // [B, W, 2]
  nn::Tensor logp_new = nn::Add(
      nn::SumLastDim(nn::GatherLastDim(move_logp, batch.move_indices)),
      nn::SumLastDim(nn::GatherLastDim(charge_logp, batch.charge_indices)));

  // Clipped surrogate objective (Eqn 12); minimize its negation.
  nn::Tensor ratio = nn::Exp(nn::Sub(logp_new, logp_old));
  nn::Tensor surr1 = nn::Mul(ratio, advantage);
  nn::Tensor surr2 = nn::Mul(
      nn::Clip(ratio, 1.0f - config_.clip_eps, 1.0f + config_.clip_eps),
      advantage);
  nn::Tensor policy_loss = nn::Neg(nn::Mean(nn::Min(surr1, surr2)));

  // Value loss (Eqn 11).
  nn::Tensor value_loss = nn::Mean(nn::Square(nn::Sub(out.value, returns)));

  // Entropy bonus over both heads, mean per sample.
  const float inv_b = 1.0f / static_cast<float>(b);
  nn::Tensor move_probs = nn::Softmax(out.move_logits);
  nn::Tensor charge_probs = nn::Softmax(out.charge_logits);
  nn::Tensor entropy = nn::MulScalar(
      nn::Add(nn::Sum(nn::Mul(move_probs, move_logp)),
              nn::Sum(nn::Mul(charge_probs, charge_logp))),
      -inv_b);

  nn::Tensor total = nn::Add(
      nn::Add(policy_loss, nn::MulScalar(value_loss, config_.value_coef)),
      nn::MulScalar(entropy, -config_.entropy_coef));

  if (stats != nullptr) {
    stats->policy_loss = policy_loss.item();
    stats->value_loss = value_loss.item();
    stats->entropy = entropy.item();
    stats->total = total.item();
    double kl = 0.0;
    int clipped = 0;
    for (nn::Index i = 0; i < b; ++i) {
      kl += logp_old.data()[i] - logp_new.data()[i];
      const float r = ratio.data()[i];
      if (r < 1.0f - config_.clip_eps || r > 1.0f + config_.clip_eps) {
        ++clipped;
      }
    }
    stats->approx_kl = static_cast<float>(kl / b);
    stats->clip_fraction = static_cast<float>(clipped) / static_cast<float>(b);
  }
  return total;
}

nn::Tensor PpoAgent::ComputeLoss(const RolloutBuffer& buffer,
                                 const std::vector<size_t>& idx,
                                 LossStats* stats) const {
  CEWS_CHECK_EQ(buffer.advantages().size(), buffer.size())
      << "ComputeLoss before ComputeAdvantages";
  return ComputeLoss(buffer.GatherBatch(idx), stats);
}

void PpoAgent::UpdateStandalone(const RolloutBuffer& buffer, Rng& rng,
                                int epochs, size_t minibatch) {
  CEWS_CHECK_GT(epochs, 0);
  for (int k = 0; k < epochs; ++k) {
    const std::vector<size_t> idx = buffer.SampleIndices(minibatch, rng);
    optimizer_->ZeroGrad();
    nn::Tensor loss = ComputeLoss(buffer, idx);
    loss.Backward();
    nn::ClipGradByGlobalNorm(net_->Parameters(), config_.max_grad_norm);
    optimizer_->Step();
  }
}

}  // namespace cews::agents
