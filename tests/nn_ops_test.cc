// Forward-value correctness of every tensor op (gradients are covered by
// nn_grad_check_test.cc).
#include "nn/ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cews::nn {
namespace {

Tensor Vec(std::vector<float> v, bool rg = false) {
  const Index n = static_cast<Index>(v.size());
  return Tensor::FromData({n}, std::move(v), rg);
}

TEST(OpsTest, AddSubMul) {
  Tensor a = Vec({1, 2, 3});
  Tensor b = Vec({4, 5, 6});
  EXPECT_FLOAT_EQ(Add(a, b).data()[1], 7.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).data()[2], -3.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).data()[0], 4.0f);
}

TEST(OpsTest, ScalarOpsAndOperators) {
  Tensor a = Vec({1, -2});
  EXPECT_FLOAT_EQ(AddScalar(a, 0.5f).data()[0], 1.5f);
  EXPECT_FLOAT_EQ(MulScalar(a, -2.0f).data()[1], 4.0f);
  EXPECT_FLOAT_EQ(Neg(a).data()[0], -1.0f);
  EXPECT_FLOAT_EQ((a + a).data()[0], 2.0f);
  EXPECT_FLOAT_EQ((a - a).data()[0], 0.0f);
  EXPECT_FLOAT_EQ((a * a).data()[1], 4.0f);
  EXPECT_FLOAT_EQ((2.0f * a).data()[0], 2.0f);
  EXPECT_FLOAT_EQ((-a).data()[0], -1.0f);
}

TEST(OpsTest, AddBias) {
  Tensor x = Tensor::FromData({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor b = Vec({10, 20, 30});
  Tensor y = AddBias(x, b);
  EXPECT_FLOAT_EQ((y.at({0, 1})), 20.0f);
  EXPECT_FLOAT_EQ((y.at({1, 2})), 31.0f);
}

TEST(OpsTest, MatMulKnownProduct) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ((c.at({0, 0})), 58.0f);
  EXPECT_FLOAT_EQ((c.at({0, 1})), 64.0f);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 139.0f);
  EXPECT_FLOAT_EQ((c.at({1, 1})), 154.0f);
}

TEST(OpsTest, Activations) {
  Tensor x = Vec({-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(Relu(x).data()[0], 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).data()[2], 2.0f);
  EXPECT_NEAR(Tanh(x).data()[2], std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(Sigmoid(x).data()[0], 1.0f / (1.0f + std::exp(1.0f)), 1e-6);
  EXPECT_NEAR(Exp(x).data()[2], std::exp(2.0f), 1e-4);
  EXPECT_FLOAT_EQ(Square(x).data()[0], 1.0f);
}

TEST(OpsTest, LogOfPositive) {
  Tensor x = Vec({1.0f, std::exp(1.0f)});
  EXPECT_NEAR(Log(x).data()[0], 0.0f, 1e-6);
  EXPECT_NEAR(Log(x).data()[1], 1.0f, 1e-6);
}

TEST(OpsTest, ClipMinMax) {
  Tensor x = Vec({-2, 0.5, 3});
  Tensor c = Clip(x, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(c.data()[1], 0.5f);
  EXPECT_FLOAT_EQ(c.data()[2], 1.0f);
  Tensor a = Vec({1, 5});
  Tensor b = Vec({2, 4});
  EXPECT_FLOAT_EQ(Min(a, b).data()[0], 1.0f);
  EXPECT_FLOAT_EQ(Min(a, b).data()[1], 4.0f);
  EXPECT_FLOAT_EQ(Max(a, b).data()[0], 2.0f);
  EXPECT_FLOAT_EQ(Max(a, b).data()[1], 5.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor p = Softmax(x);
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int j = 0; j < 3; ++j) sum += p.at({r, j});
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // Larger logits get larger probabilities.
  EXPECT_GT((p.at({0, 2})), (p.at({0, 0})));
}

TEST(OpsTest, SoftmaxNumericallyStableForHugeLogits) {
  Tensor x = Tensor::FromData({1, 2}, {1000.0f, 1000.0f});
  Tensor p = Softmax(x);
  EXPECT_NEAR(p.data()[0], 0.5f, 1e-6);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x = Tensor::FromData({1, 4}, {0.1f, -0.3f, 2.0f, 0.7f});
  Tensor ls = LogSoftmax(x);
  Tensor p = Softmax(x);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(ls.data()[j], std::log(p.data()[j]), 1e-5);
  }
}

TEST(OpsTest, Reductions) {
  Tensor x = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x).item(), 2.5f);
  Tensor s = SumLastDim(x);
  ASSERT_EQ(s.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(s.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(s.data()[1], 7.0f);
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(x, {3, 2});
  ASSERT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((r.at({2, 1})), 6.0f);
}

TEST(OpsTest, ConcatLastDim) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 1}, {9, 8});
  Tensor c = Concat(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ((c.at({0, 2})), 9.0f);
  EXPECT_FLOAT_EQ((c.at({1, 0})), 3.0f);
}

TEST(OpsTest, GatherLastDim) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherLastDim(x, {2, 0});
  ASSERT_EQ(g.shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(g.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(g.data()[1], 4.0f);
}

TEST(OpsTest, GatherOn3D) {
  // [1, 2, 2] -> rows are (batch, worker) pairs.
  Tensor x = Tensor::FromData({1, 2, 2}, {1, 2, 3, 4});
  Tensor g = GatherLastDim(x, {1, 0});
  ASSERT_EQ(g.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(g.data()[0], 2.0f);
  EXPECT_FLOAT_EQ(g.data()[1], 3.0f);
}

TEST(OpsTest, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor x = Tensor::FromData({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w = Tensor::FromData({1, 1, 1, 1}, {1.0f});
  Tensor y = Conv2d(x, w, Tensor(), /*stride=*/1, /*padding=*/0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(OpsTest, Conv2dSumKernelWithPadding) {
  // 3x3 all-ones kernel with padding 1: center output = sum of all inputs.
  Tensor x = Tensor::FromData({1, 1, 3, 3}, {1, 1, 1, 1, 1, 1, 1, 1, 1});
  Tensor w = Tensor::Full({1, 1, 3, 3}, 1.0f);
  Tensor y = Conv2d(x, w, Tensor(), 1, 1);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_FLOAT_EQ((y.at({0, 0, 1, 1})), 9.0f);  // full overlap
  EXPECT_FLOAT_EQ((y.at({0, 0, 0, 0})), 4.0f);  // corner overlap
}

TEST(OpsTest, Conv2dStrideAndBias) {
  Tensor x = Tensor::FromData({1, 1, 4, 4},
                              {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                               15, 16});
  Tensor w = Tensor::FromData({1, 1, 2, 2}, {1, 0, 0, 1});
  Tensor b = Tensor::FromData({1}, {100.0f});
  Tensor y = Conv2d(x, w, b, /*stride=*/2, /*padding=*/0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ((y.at({0, 0, 0, 0})), 1.0f + 6.0f + 100.0f);
  EXPECT_FLOAT_EQ((y.at({0, 0, 1, 1})), 11.0f + 16.0f + 100.0f);
}

TEST(OpsTest, Conv2dMultiChannel) {
  // Two input channels, kernel sums both.
  Tensor x = Tensor::FromData({1, 2, 1, 1}, {3.0f, 4.0f});
  Tensor w = Tensor::FromData({1, 2, 1, 1}, {1.0f, 1.0f});
  Tensor y = Conv2d(x, w, Tensor(), 1, 0);
  EXPECT_FLOAT_EQ(y.item(), 7.0f);
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  // relu(xhat) - relu(-xhat) == xhat: the fused op at gamma = +1 and -1
  // (beta = 0) gives back the normalized input, which must have zero mean
  // and unit variance per row.
  Tensor x = Tensor::FromData({2, 4}, {1, 2, 3, 4, -1, -2, -3, -4});
  Tensor beta = Tensor::Zeros({4});
  Tensor pos = LayerNormReluOp(x, Tensor::Full({4}, 1.0f), beta);
  Tensor neg = LayerNormReluOp(x, Tensor::Full({4}, -1.0f), beta);
  for (int r = 0; r < 2; ++r) {
    float xh[4];
    for (int j = 0; j < 4; ++j) {
      EXPECT_GE(pos.at({r, j}), 0.0f);
      EXPECT_GE(neg.at({r, j}), 0.0f);
      EXPECT_TRUE(pos.at({r, j}) == 0.0f || neg.at({r, j}) == 0.0f);
      xh[j] = pos.at({r, j}) - neg.at({r, j});
    }
    float mean = 0.0f, var = 0.0f;
    for (int j = 0; j < 4; ++j) mean += xh[j];
    mean /= 4.0f;
    for (int j = 0; j < 4; ++j) var += (xh[j] - mean) * (xh[j] - mean);
    var /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5);
    EXPECT_NEAR(var, 1.0f, 1e-3);
  }
}

TEST(OpsTest, LayerNormAffine) {
  Tensor x = Tensor::FromData({1, 2}, {-1.0f, 1.0f});
  Tensor gamma = Tensor::FromData({2}, {2.0f, 2.0f});
  Tensor beta = Tensor::FromData({2}, {5.0f, 5.0f});
  Tensor y = LayerNormReluOp(x, gamma, beta);
  // Normalized x is (-1, 1); y = relu(2 * xhat + 5), both positive.
  EXPECT_NEAR(y.data()[0], 3.0f, 1e-3);
  EXPECT_NEAR(y.data()[1], 7.0f, 1e-3);
  // A shift that takes the first pre-activation below zero clamps it to +0.
  Tensor clamped =
      LayerNormReluOp(x, gamma, Tensor::FromData({2}, {-1.0f, -1.0f}));
  EXPECT_EQ(clamped.data()[0], 0.0f);
  EXPECT_FALSE(std::signbit(clamped.data()[0]));
  EXPECT_NEAR(clamped.data()[1], 1.0f, 1e-3);
}

TEST(OpsTest, EmbeddingLookupRows) {
  Tensor table = Tensor::FromData({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor e = EmbeddingLookup(table, {2, 0, 2});
  ASSERT_EQ(e.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ((e.at({0, 0})), 20.0f);
  EXPECT_FLOAT_EQ((e.at({1, 1})), 1.0f);
  EXPECT_FLOAT_EQ((e.at({2, 0})), 20.0f);
}

TEST(OpsTest, MseLoss) {
  Tensor a = Vec({1, 2, 3});
  Tensor b = Vec({1, 0, 0});
  EXPECT_NEAR(MseLoss(a, b).item(), (0.0f + 4.0f + 9.0f) / 3.0f, 1e-6);
}

TEST(OpsTest, HuberQuadraticInsideLinearOutside) {
  Tensor x = Vec({0.5f, -0.5f, 3.0f, -3.0f});
  Tensor h = Huber(x, 1.0f);
  EXPECT_NEAR(h.data()[0], 0.125f, 1e-6);           // 0.5 * 0.25
  EXPECT_NEAR(h.data()[1], 0.125f, 1e-6);
  EXPECT_NEAR(h.data()[2], 1.0f * (3.0f - 0.5f), 1e-6);  // delta(|x|-d/2)
  EXPECT_NEAR(h.data()[3], 2.5f, 1e-6);
}

TEST(OpsTest, HuberContinuousAtDelta) {
  Tensor x = Vec({0.999f, 1.001f});
  Tensor h = Huber(x, 1.0f);
  EXPECT_NEAR(h.data()[0], h.data()[1], 1e-2);
}

TEST(OpsTest, HuberLossMatchesMseForSmallErrors) {
  Tensor a = Vec({0.1f, -0.2f});
  Tensor b = Vec({0.0f, 0.0f});
  // Inside the quadratic zone Huber = 0.5 * mse.
  EXPECT_NEAR(HuberLoss(a, b, 1.0f).item(), 0.5f * MseLoss(a, b).item(),
              1e-6);
}

}  // namespace
}  // namespace cews::nn
