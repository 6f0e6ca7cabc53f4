// Finite-difference verification of every op's backward pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/rng.h"
#include "nn/ops.h"

namespace cews::nn {
namespace {

using LossFn = std::function<Tensor(const Tensor&)>;

/// Fills t with values in [lo, hi] away from kinks.
Tensor RandomTensor(const Shape& shape, Rng& rng, float lo = -1.0f,
                    float hi = 1.0f, bool requires_grad = true) {
  Tensor t = Tensor::Zeros(shape, requires_grad);
  for (Index i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

/// Compares the autograd gradient of fn at x against central differences.
void CheckGradient(Tensor x, const LossFn& fn, float h = 1e-3f,
                   float rtol = 2e-2f, float atol = 2e-3f) {
  Tensor loss = fn(x);
  ASSERT_EQ(loss.numel(), 1) << "loss must be scalar";
  x.ZeroGrad();
  loss.Backward();
  ASSERT_NE(x.grad(), nullptr);
  std::vector<float> analytic(x.grad(), x.grad() + x.numel());

  for (Index i = 0; i < x.numel(); ++i) {
    const float saved = x.data()[i];
    x.data()[i] = saved + h;
    const float lp = fn(x).item();
    x.data()[i] = saved - h;
    const float lm = fn(x).item();
    x.data()[i] = saved;
    const float numeric = (lp - lm) / (2.0f * h);
    EXPECT_NEAR(analytic[static_cast<size_t>(i)], numeric,
                atol + rtol * std::abs(numeric))
        << "element " << i;
  }
}

TEST(GradCheck, AddBothInputs) {
  Rng rng(1);
  Tensor c = RandomTensor({3, 2}, rng, -1, 1, false);
  CheckGradient(RandomTensor({3, 2}, rng),
                [&](const Tensor& x) { return Sum(Square(Add(x, c))); });
}

TEST(GradCheck, Sub) {
  Rng rng(2);
  Tensor c = RandomTensor({4}, rng, -1, 1, false);
  CheckGradient(RandomTensor({4}, rng),
                [&](const Tensor& x) { return Sum(Square(Sub(c, x))); });
}

TEST(GradCheck, SubLeftInput) {
  // The existing Sub test differentiates through the right input only; the
  // left path (+dy instead of -dy) gets its own check.
  Rng rng(40);
  Tensor c = RandomTensor({4}, rng, -1, 1, false);
  CheckGradient(RandomTensor({4}, rng),
                [&](const Tensor& x) { return Sum(Square(Sub(x, c))); });
}

TEST(GradCheck, NegOp) {
  Rng rng(41);
  CheckGradient(RandomTensor({5}, rng),
                [](const Tensor& x) { return Sum(Square(Neg(x))); });
}

TEST(GradCheck, MulElementwise) {
  Rng rng(3);
  Tensor c = RandomTensor({5}, rng, 0.5f, 1.5f, false);
  CheckGradient(RandomTensor({5}, rng),
                [&](const Tensor& x) { return Sum(Mul(x, c)); });
}

TEST(GradCheck, MulSelf) {
  Rng rng(4);
  CheckGradient(RandomTensor({5}, rng),
                [&](const Tensor& x) { return Sum(Mul(x, x)); });
}

TEST(GradCheck, ScalarOps) {
  Rng rng(5);
  CheckGradient(RandomTensor({3}, rng), [&](const Tensor& x) {
    return Sum(AddScalar(MulScalar(x, 3.0f), -0.5f));
  });
}

TEST(GradCheck, AddBiasThroughX) {
  Rng rng(6);
  Tensor b = RandomTensor({3}, rng, -1, 1, false);
  CheckGradient(RandomTensor({2, 3}, rng), [&](const Tensor& x) {
    return Sum(Square(AddBias(x, b)));
  });
}

TEST(GradCheck, AddBiasThroughBias) {
  Rng rng(7);
  Tensor x = RandomTensor({2, 3}, rng, -1, 1, false);
  CheckGradient(RandomTensor({3}, rng), [&](const Tensor& b) {
    return Sum(Square(AddBias(x, b)));
  });
}

TEST(GradCheck, MatMulLeft) {
  Rng rng(8);
  Tensor b = RandomTensor({3, 4}, rng, -1, 1, false);
  CheckGradient(RandomTensor({2, 3}, rng), [&](const Tensor& a) {
    return Sum(Square(MatMul(a, b)));
  });
}

TEST(GradCheck, MatMulRight) {
  Rng rng(9);
  Tensor a = RandomTensor({2, 3}, rng, -1, 1, false);
  CheckGradient(RandomTensor({3, 4}, rng), [&](const Tensor& b) {
    return Sum(Square(MatMul(a, b)));
  });
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(10);
  Tensor x = RandomTensor({6}, rng);
  for (Index i = 0; i < x.numel(); ++i) {
    if (std::abs(x.data()[i]) < 0.05f) x.data()[i] = 0.1f;
  }
  CheckGradient(x, [](const Tensor& t) { return Sum(Square(Relu(t))); });
}

TEST(GradCheck, TanhSigmoidExp) {
  Rng rng(11);
  CheckGradient(RandomTensor({4}, rng),
                [](const Tensor& x) { return Sum(Tanh(x)); });
  CheckGradient(RandomTensor({4}, rng),
                [](const Tensor& x) { return Sum(Sigmoid(x)); });
  CheckGradient(RandomTensor({4}, rng),
                [](const Tensor& x) { return Sum(Exp(x)); });
}

TEST(GradCheck, LogOfPositive) {
  Rng rng(12);
  CheckGradient(RandomTensor({4}, rng, 0.5f, 2.0f),
                [](const Tensor& x) { return Sum(Log(x)); });
}

TEST(GradCheck, SquareOp) {
  Rng rng(13);
  CheckGradient(RandomTensor({4}, rng),
                [](const Tensor& x) { return Sum(Square(x)); });
}

TEST(GradCheck, ClipInterior) {
  Rng rng(14);
  // Values well inside the clip band so finite differences do not cross it.
  CheckGradient(RandomTensor({5}, rng, -0.4f, 0.4f), [](const Tensor& x) {
    return Sum(Square(Clip(x, -0.5f, 0.5f)));
  });
}

TEST(GradCheck, MinMaxSelect) {
  Rng rng(15);
  Tensor b = RandomTensor({6}, rng, -1, 1, false);
  // Separate x from b so the selection does not flip under perturbation.
  Tensor x0 = RandomTensor({6}, rng);
  for (Index i = 0; i < 6; ++i) {
    if (std::abs(x0.data()[i] - b.data()[i]) < 0.05f) {
      x0.data()[i] += 0.2f;
    }
  }
  CheckGradient(x0, [&](const Tensor& x) { return Sum(Min(x, b)); });
  CheckGradient(x0, [&](const Tensor& x) { return Sum(Max(x, b)); });
}

TEST(GradCheck, SoftmaxWeighted) {
  Rng rng(16);
  Tensor w = RandomTensor({2, 4}, rng, -1, 1, false);
  CheckGradient(RandomTensor({2, 4}, rng), [&](const Tensor& x) {
    return Sum(Mul(Softmax(x), w));
  });
}

TEST(GradCheck, LogSoftmaxGathered) {
  Rng rng(17);
  CheckGradient(RandomTensor({3, 4}, rng), [](const Tensor& x) {
    return Sum(GatherLastDim(LogSoftmax(x), {1, 0, 3}));
  });
}

TEST(GradCheck, Reductions) {
  Rng rng(18);
  CheckGradient(RandomTensor({2, 3}, rng),
                [](const Tensor& x) { return Mean(Square(x)); });
  CheckGradient(RandomTensor({2, 3}, rng), [](const Tensor& x) {
    return Sum(Square(SumLastDim(x)));
  });
}

TEST(GradCheck, ReshapeAndConcat) {
  Rng rng(19);
  Tensor c = RandomTensor({2, 2}, rng, -1, 1, false);
  CheckGradient(RandomTensor({2, 3}, rng), [&](const Tensor& x) {
    return Sum(Square(Concat(Reshape(x, {2, 3}), c)));
  });
}

TEST(GradCheck, ConcatSecondInput) {
  // ReshapeAndConcat covers the first operand; route the gradient through
  // the second (the da-offset slice of the backward).
  Rng rng(42);
  Tensor a = RandomTensor({2, 2}, rng, -1, 1, false);
  CheckGradient(RandomTensor({2, 3}, rng), [&](const Tensor& x) {
    return Sum(Square(Concat(a, x)));
  });
}

TEST(GradCheck, Conv2dInput) {
  Rng rng(20);
  Tensor w = RandomTensor({2, 2, 3, 3}, rng, -0.5f, 0.5f, false);
  Tensor b = RandomTensor({2}, rng, -0.5f, 0.5f, false);
  CheckGradient(RandomTensor({1, 2, 4, 4}, rng), [&](const Tensor& x) {
    return Sum(Square(Conv2d(x, w, b, 1, 1)));
  });
}

TEST(GradCheck, Conv2dWeight) {
  Rng rng(21);
  Tensor x = RandomTensor({1, 2, 4, 4}, rng, -1, 1, false);
  Tensor b = RandomTensor({2}, rng, -0.5f, 0.5f, false);
  CheckGradient(RandomTensor({2, 2, 3, 3}, rng, -0.5f, 0.5f),
                [&](const Tensor& w) {
                  return Sum(Square(Conv2d(x, w, b, 2, 1)));
                });
}

TEST(GradCheck, Conv2dBias) {
  Rng rng(22);
  Tensor x = RandomTensor({2, 1, 3, 3}, rng, -1, 1, false);
  Tensor w = RandomTensor({2, 1, 2, 2}, rng, -0.5f, 0.5f, false);
  CheckGradient(RandomTensor({2}, rng), [&](const Tensor& b) {
    return Sum(Square(Conv2d(x, w, b, 1, 0)));
  });
}

/// LayerNormRelu inputs for the gradient checks: 3 rows of 4 features whose
/// pre-activations gamma * xhat + beta take both signs.
struct LnReluCase {
  Tensor x = Tensor::FromData({3, 4}, {1.0f, -0.5f, 0.3f, 2.0f,    //
                                       -1.2f, 0.8f, 1.5f, -0.4f,   //
                                       0.2f, 1.9f, -1.1f, 0.6f});
  Tensor gamma = Tensor::FromData({4}, {1.2f, 0.8f, 1.0f, 0.6f});
  Tensor beta = Tensor::FromData({4}, {0.1f, -0.2f, 0.3f, -0.3f});

  /// Smallest |gamma * xhat + beta| and the count of negative ones, in
  /// double: the checks below need every pre-activation clear of ReLU's
  /// kink by more than a central difference can move it.
  std::pair<double, int> KinkMargin() const {
    double margin = 1e30;
    int negative = 0;
    for (Index r = 0; r < 3; ++r) {
      double mu = 0.0, var = 0.0;
      for (Index j = 0; j < 4; ++j) mu += x.at({r, j}) / 4.0;
      for (Index j = 0; j < 4; ++j) {
        var += (x.at({r, j}) - mu) * (x.at({r, j}) - mu) / 4.0;
      }
      for (Index j = 0; j < 4; ++j) {
        const double pre = (x.at({r, j}) - mu) / std::sqrt(var + 1e-5) *
                               gamma.data()[j] +
                           beta.data()[j];
        margin = std::min(margin, std::abs(pre));
        negative += pre < 0.0 ? 1 : 0;
      }
    }
    return {margin, negative};
  }
};

TEST(GradCheck, LayerNormInput) {
  LnReluCase c;
  const auto [margin, negative] = c.KinkMargin();
  ASSERT_GT(margin, 0.1);
  ASSERT_GT(negative, 0);
  ASSERT_LT(negative, 12);
  Tensor x = Tensor::FromData({3, 4}, c.x.ToVector(), /*requires_grad=*/true);
  CheckGradient(x,
                [&](const Tensor& xs) {
                  return Sum(Square(LayerNormReluOp(xs, c.gamma, c.beta)));
                },
                /*h=*/1e-2f, /*rtol=*/5e-2f, /*atol=*/5e-3f);
}

TEST(GradCheck, LayerNormGammaBeta) {
  LnReluCase c;
  ASSERT_GT(c.KinkMargin().first, 0.1);
  CheckGradient(Tensor::FromData({4}, c.gamma.ToVector(), true),
                [&](const Tensor& g) {
                  return Sum(Square(LayerNormReluOp(c.x, g, c.beta)));
                });
  CheckGradient(Tensor::FromData({4}, c.beta.ToVector(), true),
                [&](const Tensor& b) {
                  return Sum(Square(LayerNormReluOp(c.x, c.gamma, b)));
                });
}

TEST(GradCheck, LayerNormReluClampedGradientIsZero) {
  // Feature 0's shift clamps it in every row: no gradient reaches its gamma
  // or beta. With every feature clamped, nothing reaches x either.
  Rng rng(24);
  Tensor x = RandomTensor({3, 4}, rng, -2.0f, 2.0f);
  Tensor gamma = RandomTensor({4}, rng, 0.5f, 1.5f);
  Tensor beta = Tensor::FromData({4}, {-10.0f, 0.5f, 0.5f, 0.5f}, true);
  Sum(Square(LayerNormReluOp(x, gamma, beta))).Backward();
  EXPECT_EQ(gamma.grad()[0], 0.0f);
  EXPECT_EQ(beta.grad()[0], 0.0f);
  EXPECT_NE(beta.grad()[1] + beta.grad()[2] + beta.grad()[3], 0.0f);

  x.ZeroGrad();
  gamma.ZeroGrad();
  Tensor low = Tensor::Full({4}, -10.0f, /*requires_grad=*/true);
  Tensor y = LayerNormReluOp(x, gamma, low);
  Sum(Square(y)).Backward();
  for (Index i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y.data()[i], 0.0f) << "element " << i;
    EXPECT_EQ(x.grad()[i], 0.0f) << "element " << i;
  }
  for (Index j = 0; j < 4; ++j) {
    EXPECT_EQ(gamma.grad()[j], 0.0f) << "feature " << j;
    EXPECT_EQ(low.grad()[j], 0.0f) << "feature " << j;
  }
}

TEST(GradCheck, EmbeddingTable) {
  Rng rng(25);
  CheckGradient(RandomTensor({5, 3}, rng), [](const Tensor& table) {
    return Sum(Square(EmbeddingLookup(table, {0, 2, 4, 2})));
  });
}

TEST(GradCheck, HuberInteriorAndTails) {
  Rng rng(30);
  // Interior (quadratic zone).
  CheckGradient(RandomTensor({5}, rng, -0.4f, 0.4f),
                [](const Tensor& x) { return Sum(Huber(x, 1.0f)); });
  // Tails (linear zone), away from the kink at |x| = delta.
  CheckGradient(RandomTensor({5}, rng, 1.5f, 3.0f),
                [](const Tensor& x) { return Sum(Huber(x, 1.0f)); });
}

TEST(GradCheck, HuberLossComposite) {
  Rng rng(31);
  Tensor t = RandomTensor({6}, rng, -2.0f, 2.0f, false);
  CheckGradient(RandomTensor({6}, rng, -2.0f, 2.0f), [&](const Tensor& x) {
    return HuberLoss(x, t, 0.7f);
  });
}

TEST(GradCheck, MseLossBothSides) {
  Rng rng(26);
  Tensor t = RandomTensor({4}, rng, -1, 1, false);
  CheckGradient(RandomTensor({4}, rng),
                [&](const Tensor& x) { return MseLoss(x, t); });
}

TEST(GradCheck, CompositePpoLikeObjective) {
  // A miniature of the PPO surrogate: ratio = exp(logp - logp_old),
  // clipped objective with constant advantages.
  Rng rng(27);
  Tensor logp_old = RandomTensor({6}, rng, -2.0f, -0.5f, false);
  Tensor adv = RandomTensor({6}, rng, -1.0f, 1.0f, false);
  CheckGradient(
      RandomTensor({6}, rng, -2.0f, -0.5f),
      [&](const Tensor& logp) {
        Tensor ratio = Exp(Sub(logp, logp_old));
        Tensor s1 = Mul(ratio, adv);
        Tensor s2 = Mul(Clip(ratio, 0.8f, 1.2f), adv);
        return Neg(Mean(Min(s1, s2)));
      },
      /*h=*/1e-3f, /*rtol=*/5e-2f, /*atol=*/5e-3f);
}

}  // namespace
}  // namespace cews::nn
