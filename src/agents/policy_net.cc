#include "agents/policy_net.h"

#include <vector>

#include "common/check.h"

namespace cews::agents {

PolicyNet::PolicyNet(const PolicyNetConfig& config, cews::Rng& rng)
    : config_(config) {
  CEWS_CHECK_GT(config.num_workers, 0);
  CEWS_CHECK_GT(config.num_moves, 1);
  trunk_ = std::make_unique<CnnTrunk>(config.TrunkConfig(), rng);
  // Small-gain init on the policy output layers keeps the initial policy
  // near-uniform (standard PPO practice); value head gain 1.
  move_head_ = std::make_unique<nn::Linear>(
      config.feature_dim,
      static_cast<nn::Index>(config.num_workers) * config.num_moves, rng,
      /*gain=*/0.01f);
  charge_head_ = std::make_unique<nn::Linear>(
      config.feature_dim, static_cast<nn::Index>(config.num_workers) * 2, rng,
      /*gain=*/0.01f);
  // Bias the charging decision off at init (~12% charge probability):
  // charging is only valid near stations, and a 50/50 initial coin flip
  // would waste half of the early exploration steps standing still.
  {
    nn::Tensor bias = charge_head_->Parameters()[1];
    for (int w = 0; w < config.num_workers; ++w) {
      bias.data()[w * 2 + 1] = -2.0f;
    }
  }
  value_head_ =
      std::make_unique<nn::Linear>(config.feature_dim, 1, rng, /*gain=*/1.0f);
}

PolicyOutput PolicyNet::Forward(const nn::Tensor& x,
                                nn::RowMapPtr rows) const {
  // Under a row map the trunk and heads run once per distinct state, and
  // the head outputs expand to the logical rows the loss reads.
  nn::Tensor feature = trunk_->Forward(x, rows);
  const nn::Index n = rows != nullptr ? rows->logical() : feature.dim(0);
  const auto head = [&](const nn::Linear& linear) {
    nn::Tensor y = linear.Forward(feature, rows);
    return rows != nullptr ? nn::ExpandRows(y, rows) : y;
  };

  PolicyOutput out;
  out.feature = feature;
  out.move_logits = nn::Reshape(head(*move_head_),
                                {n, config_.num_workers, config_.num_moves});
  out.charge_logits =
      nn::Reshape(head(*charge_head_), {n, config_.num_workers, 2});
  out.value = nn::Reshape(head(*value_head_), {n});
  return out;
}

std::vector<nn::Tensor> PolicyNet::Parameters() const {
  std::vector<nn::Tensor> params = trunk_->Parameters();
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(move_head_.get()),
        static_cast<const nn::Module*>(charge_head_.get()),
        static_cast<const nn::Module*>(value_head_.get())}) {
    for (nn::Tensor t : m->Parameters()) params.push_back(t);
  }
  return params;
}

}  // namespace cews::agents
