#include "nn/module.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nn/params.h"
#include "nn/serialize.h"

namespace cews::nn {
namespace {

TEST(LinearTest, ShapesAndParamCount) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  EXPECT_EQ(layer.in_features(), 4);
  EXPECT_EQ(layer.out_features(), 3);
  EXPECT_EQ(layer.NumParameters(), 4 * 3 + 3);
  Tensor x = Tensor::Zeros({5, 4});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{5, 3}));
}

TEST(LinearTest, ZeroInputYieldsBias) {
  Rng rng(2);
  Linear layer(3, 2, rng);
  Tensor bias = layer.Parameters()[1];
  bias.data()[0] = 0.5f;
  bias.data()[1] = -0.5f;
  Tensor y = layer.Forward(Tensor::Zeros({1, 3}));
  EXPECT_FLOAT_EQ(y.data()[0], 0.5f);
  EXPECT_FLOAT_EQ(y.data()[1], -0.5f);
}

TEST(LinearTest, GainScalesInit) {
  Rng rng1(3), rng2(3);
  Linear big(8, 8, rng1, 1.0f);
  Linear small(8, 8, rng2, 0.01f);
  const Tensor wb = big.Parameters()[0];
  const Tensor ws = small.Parameters()[0];
  for (Index i = 0; i < wb.numel(); ++i) {
    EXPECT_NEAR(ws.data()[i], wb.data()[i] * 0.01f, 1e-7);
  }
}

TEST(Conv2dLayerTest, OutputGeometry) {
  Rng rng(4);
  Conv2dLayer conv(3, 8, 3, /*stride=*/2, /*padding=*/1, rng);
  Tensor x = Tensor::Zeros({2, 3, 16, 16});
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
  EXPECT_EQ(conv.NumParameters(), 8 * 3 * 3 * 3 + 8);
}

TEST(LayerNormReluTest, NormalizesPerSample) {
  // Fresh parameters are gamma = 1, beta = 0, so the output is relu(xhat).
  LayerNormRelu ln(6);
  Tensor x = Tensor::FromData({2, 6}, {1, 2, 3, 4, 5, 6, -3, -1, 0, 2, 4, 10});
  Tensor y = ln.Forward(x);
  for (int r = 0; r < 2; ++r) {
    double mean = 0.0, var = 0.0;
    for (int j = 0; j < 6; ++j) mean += x.at({r, j}) / 6.0;
    for (int j = 0; j < 6; ++j) {
      var += (x.at({r, j}) - mean) * (x.at({r, j}) - mean) / 6.0;
    }
    for (int j = 0; j < 6; ++j) {
      const double xh = (x.at({r, j}) - mean) / std::sqrt(var + 1e-5);
      EXPECT_NEAR(y.at({r, j}), std::max(xh, 0.0), 1e-5);
    }
  }
  EXPECT_EQ(ln.NumParameters(), 12);
}

TEST(EmbeddingTest, FrozenHasNoParameters) {
  Rng rng(5);
  Embedding frozen(10, 4, rng, /*trainable=*/false);
  Embedding trainable(10, 4, rng, /*trainable=*/true);
  EXPECT_TRUE(frozen.Parameters().empty());
  EXPECT_EQ(trainable.Parameters().size(), 1u);
  EXPECT_EQ(frozen.vocab(), 10);
  EXPECT_EQ(frozen.dim(), 4);
}

TEST(EmbeddingTest, LookupIsConsistent) {
  Rng rng(6);
  Embedding e(5, 3, rng, false);
  Tensor a = e.Forward({2});
  Tensor b = e.Forward({2, 2});
  for (int j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ((a.at({0, j})), (b.at({0, j})));
    EXPECT_FLOAT_EQ((a.at({0, j})), (b.at({1, j})));
  }
}

TEST(MlpTest, ForwardShapeAndParams) {
  Rng rng(7);
  Mlp mlp({4, 8, 8, 2}, Activation::kRelu, rng);
  Tensor y = mlp.Forward(Tensor::Zeros({3, 4}));
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  EXPECT_EQ(mlp.NumParameters(), (4 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2));
}

TEST(MlpTest, TanhActivationBoundsHidden) {
  Rng rng(8);
  Mlp mlp({2, 4, 1}, Activation::kTanh, rng);
  // Just exercise the tanh path; output exists and is finite.
  Tensor y = mlp.Forward(Tensor::Full({1, 2}, 100.0f));
  EXPECT_TRUE(std::isfinite(y.item()));
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(9);
  Linear layer(2, 2, rng);
  Tensor loss = Sum(Square(layer.Forward(Tensor::Full({1, 2}, 1.0f))));
  loss.Backward();
  bool any_nonzero = false;
  for (Tensor p : layer.Parameters()) {
    for (Index i = 0; i < p.numel(); ++i) {
      if (p.grad()[i] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  layer.ZeroGrad();
  for (Tensor p : layer.Parameters()) {
    for (Index i = 0; i < p.numel(); ++i) EXPECT_EQ(p.grad()[i], 0.0f);
  }
}

TEST(ParamsTest, CopyParameters) {
  Rng rng(10);
  Linear a(3, 3, rng), b(3, 3, rng);
  CopyParameters(a.Parameters(), b.Parameters());
  const Tensor wa = a.Parameters()[0];
  const Tensor wb = b.Parameters()[0];
  for (Index i = 0; i < wa.numel(); ++i) {
    EXPECT_EQ(wa.data()[i], wb.data()[i]);
  }
}

TEST(ParamsTest, FlattenRoundTrip) {
  Rng rng(11);
  Mlp mlp({2, 3, 1}, Activation::kRelu, rng);
  const auto params = mlp.Parameters();
  const std::vector<float> flat = FlattenValues(params);
  EXPECT_EQ(static_cast<Index>(flat.size()), FlatSize(params));
  Rng rng2(99);
  Mlp other({2, 3, 1}, Activation::kRelu, rng2);
  LoadFlatValues(other.Parameters(), flat);
  EXPECT_EQ(FlattenValues(other.Parameters()), flat);
}

TEST(ParamsTest, GradientFlattenAndAccumulate) {
  Rng rng(12);
  Linear layer(2, 2, rng);
  const auto params = layer.Parameters();
  Tensor loss = Sum(layer.Forward(Tensor::Full({1, 2}, 1.0f)));
  loss.Backward();
  const std::vector<float> flat = FlattenGradients(params);
  // Accumulating the same flat gradient doubles every entry.
  AccumulateFlatGradients(params, flat);
  const std::vector<float> doubled = FlattenGradients(params);
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_FLOAT_EQ(doubled[i], 2.0f * flat[i]);
  }
}

TEST(ParamsTest, GlobalNormAndClip) {
  Rng rng(13);
  Linear layer(2, 2, rng);
  const auto params = layer.Parameters();
  ZeroGradients(params);
  // Install a known gradient: all ones -> norm = sqrt(numel).
  for (Tensor p : params) {
    for (Index i = 0; i < p.numel(); ++i) p.grad()[i] = 1.0f;
  }
  const double n = GlobalGradNorm(params);
  EXPECT_NEAR(n, std::sqrt(6.0), 1e-6);
  const double pre = ClipGradByGlobalNorm(params, 1.0);
  EXPECT_NEAR(pre, std::sqrt(6.0), 1e-6);
  EXPECT_NEAR(GlobalGradNorm(params), 1.0, 1e-5);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(14);
  Mlp a({3, 4, 2}, Activation::kRelu, rng);
  const std::string path = ::testing::TempDir() + "/cews_params_test.bin";
  ASSERT_TRUE(SaveParameters(path, a.Parameters()).ok());
  Rng rng2(77);
  Mlp b({3, 4, 2}, Activation::kRelu, rng2);
  ASSERT_TRUE(LoadParameters(path, b.Parameters()).ok());
  EXPECT_EQ(FlattenValues(a.Parameters()), FlattenValues(b.Parameters()));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(15);
  Mlp a({3, 4, 2}, Activation::kRelu, rng);
  const std::string path = ::testing::TempDir() + "/cews_params_test2.bin";
  ASSERT_TRUE(SaveParameters(path, a.Parameters()).ok());
  Mlp b({3, 5, 2}, Activation::kRelu, rng);
  const Status s = LoadParameters(path, b.Parameters());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIOError) {
  Rng rng(16);
  Linear layer(2, 2, rng);
  const Status s =
      LoadParameters("/nonexistent/cews.bin", layer.Parameters());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(SerializeTest, GarbageFileRejected) {
  const std::string path = ::testing::TempDir() + "/cews_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  Rng rng(17);
  Linear layer(2, 2, rng);
  const Status s = LoadParameters(path, layer.Parameters());
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cews::nn
