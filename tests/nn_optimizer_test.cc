#include "nn/optimizer.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/module.h"
#include "nn/ops.h"

namespace cews::nn {
namespace {

/// Minimizes f(x) = sum((x - target)^2) and returns the final x.
template <typename MakeOpt>
std::vector<float> MinimizeQuadratic(MakeOpt make_opt, int steps) {
  Tensor x = Tensor::FromData({3}, {5.0f, -4.0f, 2.0f}, true);
  Tensor target = Tensor::FromData({3}, {1.0f, 2.0f, 3.0f});
  auto opt = make_opt(std::vector<Tensor>{x});
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    Tensor loss = Sum(Square(Sub(x, target)));
    loss.Backward();
    opt->Step();
  }
  return x.ToVector();
}

TEST(SgdTest, ConvergesOnQuadratic) {
  const auto x = MinimizeQuadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Sgd>(std::move(p), 0.1f);
      },
      200);
  EXPECT_NEAR(x[0], 1.0f, 1e-3);
  EXPECT_NEAR(x[1], 2.0f, 1e-3);
  EXPECT_NEAR(x[2], 3.0f, 1e-3);
}

TEST(SgdTest, MomentumConverges) {
  const auto x = MinimizeQuadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Sgd>(std::move(p), 0.05f, 0.9f);
      },
      300);
  EXPECT_NEAR(x[0], 1.0f, 1e-2);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  const auto x = MinimizeQuadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Adam>(std::move(p), 0.1f);
      },
      500);
  EXPECT_NEAR(x[0], 1.0f, 1e-2);
  EXPECT_NEAR(x[1], 2.0f, 1e-2);
  EXPECT_NEAR(x[2], 3.0f, 1e-2);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // With bias correction, Adam's first step magnitude is ~lr regardless of
  // gradient scale.
  Tensor x = Tensor::FromData({1}, {0.0f}, true);
  Adam adam({x}, 0.01f);
  adam.ZeroGrad();
  Tensor loss = Sum(MulScalar(x, 1000.0f));
  loss.Backward();
  adam.Step();
  EXPECT_NEAR(x.data()[0], -0.01f, 1e-4);
}

TEST(AdamTest, SkipsParamsWithNoGrad) {
  Tensor x = Tensor::FromData({1}, {1.0f}, true);
  Adam adam({x}, 0.1f);
  adam.Step();  // no backward ran; x must be untouched
  EXPECT_FLOAT_EQ(x.data()[0], 1.0f);
}

TEST(AdamTest, StepsGiveTheBytesOfTheWrittenOutLoop) {
  // Odd sizes put elements in the vector lanes and in the scalar tail; the
  // fmas are written out as Adam documents them. Five steps with fresh
  // gradients, lr and betas off their defaults, exact zero gradients.
  Rng rng(23);
  const float lr = 3e-3f, beta1 = 0.85f, beta2 = 0.995f, eps = 1e-7f;
  std::vector<Tensor> params;
  for (const Index size : {1, 7, 15, 16, 17, 33, 250, 1027}) {
    std::vector<float> data(static_cast<size_t>(size));
    for (float& x : data) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    params.push_back(Tensor::FromData({size}, std::move(data), true));
  }
  std::vector<std::vector<float>> want_p, want_m, want_v;
  for (const Tensor& t : params) {
    want_p.push_back(t.ToVector());
    want_m.emplace_back(static_cast<size_t>(t.numel()), 0.0f);
    want_v.emplace_back(static_cast<size_t>(t.numel()), 0.0f);
  }
  Adam adam(params, lr, beta1, beta2, eps);
  for (int step = 1; step <= 5; ++step) {
    adam.ZeroGrad();
    for (Tensor t : params) {
      for (Index i = 0; i < t.numel(); ++i) {
        t.grad()[i] = i % 5 == 2 ? 0.0f
                                 : static_cast<float>(rng.Uniform(-2.0, 2.0));
      }
    }
    adam.Step();
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(step));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(step));
    for (size_t pi = 0; pi < params.size(); ++pi) {
      const float* g = params[pi].grad();
      std::vector<float>& p = want_p[pi];
      std::vector<float>& m = want_m[pi];
      std::vector<float>& v = want_v[pi];
      for (size_t i = 0; i < p.size(); ++i) {
        m[i] = std::fmaf(beta1, m[i], (1.0f - beta1) * g[i]);
        v[i] = std::fmaf(beta2, v[i], (1.0f - beta2) * g[i] * g[i]);
        const float mhat = m[i] / bc1;
        const float vhat = v[i] / bc2;
        p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
      ASSERT_EQ(std::memcmp(p.data(), params[pi].data(),
                            p.size() * sizeof(float)),
                0)
          << "step " << step << " size " << p.size();
    }
  }
}

TEST(OptimizerTest, TrainsMlpOnXor) {
  // The classic non-linear sanity check: 2-4-1 MLP learns XOR.
  Rng rng(11);
  Mlp mlp({2, 8, 1}, Activation::kTanh, rng);
  Adam adam(mlp.Parameters(), 0.05f);
  const float inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const float targets[4] = {0, 1, 1, 0};
  Tensor x = Tensor::FromData(
      {4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y = Tensor::FromData({4, 1}, {0, 1, 1, 0});
  float final_loss = 1.0f;
  for (int step = 0; step < 800; ++step) {
    adam.ZeroGrad();
    Tensor loss = MseLoss(mlp.Forward(x), y);
    loss.Backward();
    adam.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.03f);
  for (int i = 0; i < 4; ++i) {
    Tensor xi = Tensor::FromData({1, 2}, {inputs[i][0], inputs[i][1]});
    EXPECT_NEAR(mlp.Forward(xi).item(), targets[i], 0.35f);
  }
}

TEST(OptimizerTest, LearningRateAccessors) {
  Tensor x = Tensor::Zeros({1}, true);
  Adam adam({x}, 0.1f);
  EXPECT_FLOAT_EQ(adam.lr(), 0.1f);
  adam.set_lr(0.01f);
  EXPECT_FLOAT_EQ(adam.lr(), 0.01f);
  Sgd sgd({x}, 0.2f);
  EXPECT_FLOAT_EQ(sgd.lr(), 0.2f);
}

}  // namespace
}  // namespace cews::nn
