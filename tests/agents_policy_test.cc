#include "agents/policy_net.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "agents/eval.h"
#include "agents/ppo.h"
#include "nn/params.h"
#include "obs/metrics.h"

namespace cews::agents {
namespace {

PolicyNetConfig TinyNet(int workers = 2) {
  PolicyNetConfig config;
  config.grid = 8;
  config.num_workers = workers;
  config.num_moves = 9;
  config.conv1_channels = 4;
  config.conv2_channels = 4;
  config.conv3_channels = 4;
  config.feature_dim = 32;
  return config;
}

std::vector<float> ZeroState(const PolicyNetConfig& c) {
  return std::vector<float>(
      static_cast<size_t>(c.in_channels * c.grid * c.grid), 0.0f);
}

TEST(PolicyNetTest, OutputShapes) {
  Rng rng(1);
  const PolicyNetConfig config = TinyNet();
  PolicyNet net(config, rng);
  nn::Tensor x = nn::Tensor::Zeros({3, 3, 8, 8});
  const PolicyOutput out = net.Forward(x);
  EXPECT_EQ(out.move_logits.shape(), (nn::Shape{3, 2, 9}));
  EXPECT_EQ(out.charge_logits.shape(), (nn::Shape{3, 2, 2}));
  EXPECT_EQ(out.value.shape(), (nn::Shape{3}));
  EXPECT_EQ(out.feature.shape(), (nn::Shape{3, 32}));
}

TEST(PolicyNetTest, OutputsFinite) {
  Rng rng(2);
  PolicyNet net(TinyNet(), rng);
  nn::Tensor x = nn::Tensor::Full({1, 3, 8, 8}, 1.0f);
  const PolicyOutput out = net.Forward(x);
  for (nn::Index i = 0; i < out.move_logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(out.move_logits.data()[i]));
  }
  EXPECT_TRUE(std::isfinite(out.value.data()[0]));
}

TEST(PolicyNetTest, SmallGainKeepsInitialPolicyNearUniform) {
  Rng rng(3);
  PolicyNet net(TinyNet(), rng);
  nn::Tensor x = nn::Tensor::Full({1, 3, 8, 8}, 0.5f);
  const PolicyOutput out = net.Forward(x);
  // With 0.01-gain heads the logits are tiny -> near-uniform distribution.
  for (nn::Index i = 0; i < out.move_logits.numel(); ++i) {
    EXPECT_LT(std::abs(out.move_logits.data()[i]), 0.5f);
  }
}

TEST(PolicyNetTest, ParameterCountMatchesArchitecture) {
  Rng rng(4);
  const PolicyNetConfig c = TinyNet();
  PolicyNet net(c, rng);
  EXPECT_GT(net.NumParameters(), 0);
  // Conv params + LN params + FC + 3 heads; spot-check total consistency
  // between two identically-configured nets.
  Rng rng2(5);
  PolicyNet net2(c, rng2);
  EXPECT_EQ(net.NumParameters(), net2.NumParameters());
  EXPECT_EQ(net.Parameters().size(), net2.Parameters().size());
}

TEST(SamplePolicyTest, ActionsInRange) {
  Rng rng(6);
  const PolicyNetConfig c = TinyNet();
  PolicyNet net(c, rng);
  Rng sample_rng(7);
  const ActResult act = SamplePolicy(net, ZeroState(c), sample_rng, false);
  ASSERT_EQ(act.moves.size(), 2u);
  ASSERT_EQ(act.charges.size(), 2u);
  ASSERT_EQ(act.actions.size(), 2u);
  for (int w = 0; w < 2; ++w) {
    EXPECT_GE(act.moves[static_cast<size_t>(w)], 0);
    EXPECT_LT(act.moves[static_cast<size_t>(w)], 9);
    EXPECT_TRUE(act.charges[static_cast<size_t>(w)] == 0 ||
                act.charges[static_cast<size_t>(w)] == 1);
    EXPECT_EQ(act.actions[static_cast<size_t>(w)].move,
              act.moves[static_cast<size_t>(w)]);
  }
  EXPECT_LE(act.log_prob, 0.0f);
  EXPECT_TRUE(std::isfinite(act.value));
}

TEST(SamplePolicyTest, DeterministicIsRepeatable) {
  Rng rng(8);
  const PolicyNetConfig c = TinyNet();
  PolicyNet net(c, rng);
  Rng r1(1), r2(2);
  const ActResult a = SamplePolicy(net, ZeroState(c), r1, true);
  const ActResult b = SamplePolicy(net, ZeroState(c), r2, true);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.charges, b.charges);
}

TEST(SamplePolicyTest, StochasticIsSeedDeterministic) {
  Rng rng(9);
  const PolicyNetConfig c = TinyNet();
  PolicyNet net(c, rng);
  Rng r1(5), r2(5);
  const ActResult a = SamplePolicy(net, ZeroState(c), r1, false);
  const ActResult b = SamplePolicy(net, ZeroState(c), r2, false);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.charges, b.charges);
  EXPECT_FLOAT_EQ(a.log_prob, b.log_prob);
}

RolloutBuffer MakeBiasedBuffer(const PolicyNetConfig& c, PpoAgent& agent,
                               Rng& rng, int steps) {
  // Synthetic experience: move index 1 earns +1, everything else -1.
  RolloutBuffer buffer;
  const std::vector<float> state = ZeroState(c);
  for (int t = 0; t < steps; ++t) {
    const ActResult act = agent.Act(state, rng);
    Transition tr;
    tr.state = state;
    tr.moves = act.moves;
    tr.charges = act.charges;
    tr.log_prob = act.log_prob;
    tr.value = act.value;
    tr.reward = act.moves[0] == 1 ? 1.0f : -1.0f;
    tr.done = (t + 1 == steps);
    buffer.Add(std::move(tr));
  }
  buffer.ComputeAdvantages(0.0f, 0.95f, 0.0f);  // gamma 0: reward is target
  return buffer;
}

TEST(PpoAgentTest, LossIsFiniteAndProducesGradients) {
  const PolicyNetConfig c = TinyNet();
  PpoAgent agent(c, PpoConfig{}, 11);
  Rng rng(12);
  RolloutBuffer buffer = MakeBiasedBuffer(c, agent, rng, 32);
  const std::vector<size_t> idx = buffer.SampleIndices(16, rng);
  nn::ZeroGradients(agent.Parameters());
  LossStats stats;
  nn::Tensor loss = agent.ComputeLoss(buffer, idx, &stats);
  EXPECT_TRUE(std::isfinite(stats.total));
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
  EXPECT_GT(stats.entropy, 0.0f);  // near-uniform init has high entropy
  loss.Backward();
  EXPECT_GT(nn::GlobalGradNorm(agent.Parameters()), 0.0);
}

TEST(PpoAgentTest, DiagnosticsBeforeAnyUpdateAreNeutral) {
  // Evaluating the loss under the behavior policy itself: ratio == 1
  // everywhere, so approx-KL ~ 0 and nothing is clipped.
  const PolicyNetConfig c = TinyNet();
  PpoAgent agent(c, PpoConfig{}, 21);
  Rng rng(22);
  RolloutBuffer buffer = MakeBiasedBuffer(c, agent, rng, 32);
  const std::vector<size_t> idx = buffer.SampleIndices(32, rng);
  LossStats stats;
  agent.ComputeLoss(buffer, idx, &stats);
  EXPECT_NEAR(stats.approx_kl, 0.0f, 1e-4f);
  EXPECT_EQ(stats.clip_fraction, 0.0f);
}

TEST(PpoAgentTest, DiagnosticsMoveAfterUpdates) {
  const PolicyNetConfig c = TinyNet();
  PpoConfig ppo;
  ppo.lr = 0.02f;
  PpoAgent agent(c, ppo, 23);
  Rng rng(24);
  RolloutBuffer buffer = MakeBiasedBuffer(c, agent, rng, 64);
  // Several aggressive updates on the same buffer push the policy away
  // from the behavior policy.
  agent.UpdateStandalone(buffer, rng, /*epochs=*/12, /*minibatch=*/64);
  const std::vector<size_t> idx = buffer.SampleIndices(64, rng);
  LossStats stats;
  agent.ComputeLoss(buffer, idx, &stats);
  EXPECT_GT(std::abs(stats.approx_kl), 1e-4f);
  EXPECT_GT(stats.clip_fraction, 0.0f);
  EXPECT_LE(stats.clip_fraction, 1.0f);
}

TEST(PpoAgentTest, UpdateShiftsPolicyTowardAdvantagedAction) {
  const PolicyNetConfig c = TinyNet();
  PpoConfig ppo;
  ppo.lr = 0.01f;  // Adam moves ~lr per step; keep the test fast
  ppo.entropy_coef = 0.0f;
  PpoAgent agent(c, ppo, 13);
  Rng rng(14);
  const std::vector<float> state = ZeroState(c);

  auto prob_of_move1 = [&]() {
    nn::NoGradGuard no_grad;
    nn::Tensor x =
        nn::Tensor::FromData({1, c.in_channels, c.grid, c.grid}, state);
    const PolicyOutput out = agent.net().Forward(x);
    // softmax over worker 0's move logits
    float mx = out.move_logits.data()[0];
    for (int j = 1; j < c.num_moves; ++j) {
      mx = std::max(mx, out.move_logits.data()[j]);
    }
    double z = 0.0;
    for (int j = 0; j < c.num_moves; ++j) {
      z += std::exp(out.move_logits.data()[j] - mx);
    }
    return std::exp(out.move_logits.data()[1] - mx) / z;
  };

  const double before = prob_of_move1();
  for (int round = 0; round < 25; ++round) {
    RolloutBuffer buffer = MakeBiasedBuffer(c, agent, rng, 64);
    agent.UpdateStandalone(buffer, rng, /*epochs=*/4, /*minibatch=*/32);
  }
  const double after = prob_of_move1();
  EXPECT_GT(after, std::max(before, 1.0 / c.num_moves) + 0.15);
}

TEST(PpoAgentTest, ValueHeadRegressesToReturns) {
  const PolicyNetConfig c = TinyNet();
  PpoConfig ppo;
  ppo.entropy_coef = 0.0f;
  ppo.lr = 0.01f;
  PpoAgent agent(c, ppo, 15);
  Rng rng(16);
  const std::vector<float> state = ZeroState(c);
  // Constant reward 1 with gamma 0 -> value target 1 everywhere.
  for (int round = 0; round < 30; ++round) {
    RolloutBuffer buffer;
    for (int t = 0; t < 32; ++t) {
      const ActResult act = agent.Act(state, rng);
      Transition tr;
      tr.state = state;
      tr.moves = act.moves;
      tr.charges = act.charges;
      tr.log_prob = act.log_prob;
      tr.value = act.value;
      tr.reward = 1.0f;
      tr.done = (t == 31);
      buffer.Add(std::move(tr));
    }
    buffer.ComputeAdvantages(0.0f, 0.95f, 0.0f);
    agent.UpdateStandalone(buffer, rng, 4, 16);
  }
  EXPECT_NEAR(agent.Value(state), 1.0f, 0.3f);
}

TEST(PpoAgentTest, RepeatedTransitionsKeepTheGradientBits) {
  // Table II's batch of 250 drawn from one 100-step episode repeats
  // transitions, and ComputeLoss then runs the trunk once per distinct one
  // (nn/ops.h "RowMap"). The same minibatch without its buffer indices runs
  // the trunk on every row; the loss, the diagnostics and every parameter
  // gradient must keep their bytes.
  const PolicyNetConfig c;  // the paper net
  PpoAgent agent(c, PpoConfig{}, 21);
  Rng rng(22);
  RolloutBuffer buffer;
  for (int t = 0; t < 100; ++t) {
    std::vector<float> state = ZeroState(c);
    for (float& v : state) {
      v = rng.Uniform() < 0.3 ? 0.0f : static_cast<float>(rng.Uniform());
    }
    const ActResult act = agent.Act(state, rng);
    Transition tr;
    tr.state = std::move(state);
    tr.moves = act.moves;
    tr.charges = act.charges;
    tr.log_prob = act.log_prob;
    tr.value = act.value;
    tr.reward = static_cast<float>(rng.Uniform(-1.0, 1.0));
    tr.done = t == 99;
    buffer.Add(std::move(tr));
  }
  buffer.ComputeAdvantages(0.99f, 0.95f, 0.0f);
  const MiniBatch drawn = buffer.SampleBatch(250, rng);
  MiniBatch unnumbered = drawn;
  unnumbered.indices.clear();

  struct Run {
    std::vector<float> loss_and_grads;
    LossStats stats;
    uint64_t rows = 0, distinct = 0;
  };
  const auto run = [&agent](MiniBatch mb) {
    const auto count = [](const char* name) {
      return obs::SnapshotMetrics().CounterValue(name);
    };
    const uint64_t rows0 = count("ppo.minibatch_rows");
    const uint64_t distinct0 = count("ppo.distinct_rows");
    Run r;
    nn::ZeroGradients(agent.Parameters());
    nn::Tensor loss = agent.ComputeLoss(std::move(mb), &r.stats);
    loss.Backward();
    r.loss_and_grads = nn::FlattenGradients(agent.Parameters());
    r.loss_and_grads.push_back(loss.item());
    r.rows = count("ppo.minibatch_rows") - rows0;
    r.distinct = count("ppo.distinct_rows") - distinct0;
    return r;
  };
  const Run want = run(unnumbered);
  const Run got = run(drawn);
  EXPECT_EQ(want.rows, 250u);
  EXPECT_EQ(want.distinct, 250u);
  EXPECT_EQ(got.rows, 250u);
  EXPECT_LE(got.distinct, 100u);  // about 92 of the 100 transitions
  EXPECT_GT(got.distinct, 80u);
  ASSERT_EQ(want.loss_and_grads.size(), got.loss_and_grads.size());
  EXPECT_EQ(std::memcmp(want.loss_and_grads.data(), got.loss_and_grads.data(),
                        want.loss_and_grads.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(&want.stats, &got.stats, sizeof(LossStats)), 0);
}

}  // namespace
}  // namespace cews::agents
