// Bitwise spec of row maps (nn/ops.h "RowMap").
//
// Conv2d, LayerNormReluOp, MatMul, AddBias and Linear given a batch's
// distinct rows and a row map must give the bytes the expanded batch gives:
// every forward row, the parameter gradients (conv dW and db, LayerNorm
// dgamma and dbeta, MatMul dW and AddBias db, which replay the logical rows
// in order), and each distinct row's input gradient equal to its first
// logical row's. The expanded batch runs the unmapped op, whose bytes
// nn_conv_test, nn_layer_norm_test and nn_gemm_test pin to plain
// references. Maps cover no repeats, one row read by every logical row,
// draws with replacement from 100 and from 3 rows, and a batch of 1; conv
// shapes cover the paper net's three convs and odd channel counts and
// strides, linear shapes its FC and three heads and odd widths, at pool
// sizes 1 and 4. Every gradient starts from a nonzero value the op must add
// onto.
//
// ExpandRows is checked on its own: the forward gather, the backward that
// hands each distinct row its first logical row's gradient, and the CHECK
// that fires when two logical rows of one distinct row disagree.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace cews::nn {
namespace {

/// Uniform floats in (-1, 1), with +0 at every 7th and -0 at every 11th
/// element when `zeros` is set.
std::vector<float> Data(Index count, Rng& rng, bool zeros) {
  std::vector<float> v(static_cast<size_t>(count));
  for (Index i = 0; i < count; ++i) {
    float x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    if (zeros && i % 7 == 3) x = 0.0f;
    if (zeros && i % 11 == 5) x = -0.0f;
    v[static_cast<size_t>(i)] = x;
  }
  return v;
}

struct MapCase {
  std::string name;
  std::vector<Index> keys;  // one per logical row
};

/// `logical` keys drawn with replacement from `pool` values.
std::vector<Index> Draws(Index logical, Index pool, uint64_t seed) {
  Rng rng(seed);
  std::vector<Index> keys;
  for (Index i = 0; i < logical; ++i) {
    keys.push_back(static_cast<Index>(rng.UniformInt(
        static_cast<uint64_t>(pool))));
  }
  return keys;
}

std::vector<MapCase> Maps() {
  std::vector<MapCase> maps;
  std::vector<Index> identity;
  for (Index i = 0; i < 9; ++i) identity.push_back(i);
  maps.push_back({"no repeats", identity});
  maps.push_back({"one row x250", std::vector<Index>(250, 42)});
  maps.push_back({"250 from 100", Draws(250, 100, 5)});
  maps.push_back({"250 from 3", Draws(250, 3, 6)});
  maps.push_back({"batch 1", {17}});
  return maps;
}

/// Rows `rows` of a [distinct, row] array, one per logical row.
std::vector<float> Expand(const std::vector<float>& v, const RowMap& map,
                          Index row) {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(map.logical() * row));
  for (const Index u : map.rows()) {
    out.insert(out.end(), v.begin() + u * row, v.begin() + (u + 1) * row);
  }
  return out;
}

std::vector<float> Copy(const float* p, Index n) {
  return std::vector<float>(p, p + n);
}

/// A leaf holding `data` whose gradient starts at `grad`.
Tensor Leaf(const Shape& shape, const std::vector<float>& data,
            const std::vector<float>& grad) {
  Tensor t = Tensor::FromData(shape, data, /*requires_grad=*/true);
  t.ZeroGrad();
  std::copy(grad.begin(), grad.end(), t.grad());
  return t;
}

void ExpectSameBytes(const std::vector<float>& want,
                     const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  if (want.empty()) return;
  if (std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) == 0) {
    return;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&want[i], &got[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first difference at " << i << " want "
                    << want[i] << " got " << got[i];
      return;
    }
  }
}

/// The input gradient of each distinct row against its first logical
/// row's in the expanded batch.
void ExpectFirstRows(const std::vector<float>& expanded,
                     const std::vector<float>& distinct, const RowMap& map,
                     Index row, const std::string& what) {
  std::vector<float> firsts;
  for (const Index i : map.first()) {
    firsts.insert(firsts.end(), expanded.begin() + i * row,
                  expanded.begin() + (i + 1) * row);
  }
  ExpectSameBytes(firsts, distinct, what);
}

class RowMapTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { runtime::SetGlobalPoolThreads(GetParam()); }
  void TearDown() override { runtime::SetGlobalPoolThreads(1); }
};

TEST(RowMapNumberTest, NumbersKeysByFirstOccurrence) {
  const RowMapPtr map = RowMap::Number({5, 3, 5, 7, 3, 3, 0});
  EXPECT_EQ(map->logical(), 7);
  EXPECT_EQ(map->distinct(), 4);
  EXPECT_EQ(map->rows(), (std::vector<Index>{0, 1, 0, 2, 1, 1, 3}));
  EXPECT_EQ(map->first(), (std::vector<Index>{0, 1, 3, 6}));
}

struct ConvShape {
  Index c, h, w, oc;
  int stride;
  std::string Name() const {
    std::ostringstream os;
    os << "c" << c << " " << h << "x" << w << " oc" << oc << " s" << stride;
    return os.str();
  }
};

TEST_P(RowMapTest, Conv2dMatchesTheExpandedBatch) {
  // The paper net's conv1-3, then odd channel counts and strides.
  const ConvShape shapes[] = {{3, 20, 20, 8, 1},  {8, 20, 20, 16, 2},
                              {16, 10, 10, 16, 2}, {1, 7, 9, 3, 1},
                              {3, 9, 5, 17, 2},   {17, 6, 7, 1, 1}};
  uint64_t seed = 100;
  for (const MapCase& m : Maps()) {
    const RowMapPtr map = RowMap::Number(m.keys);
    const Index nd = map->distinct(), nl = map->logical();
    for (const ConvShape& s : shapes) {
      const std::string what = m.name + " " + s.Name();
      Rng rng(seed += 10);
      const Index img = s.c * s.h * s.w, k = 3;
      const Index oh = (s.h + 2 - k) / s.stride + 1;
      const Index ow = (s.w + 2 - k) / s.stride + 1;
      const Index out_img = s.oc * oh * ow;
      const std::vector<float> x = Data(nd * img, rng, true);
      const std::vector<float> dx0 = Data(nd * img, rng, false);
      const std::vector<float> w = Data(s.oc * s.c * k * k, rng, false);
      const std::vector<float> b = Data(s.oc, rng, true);
      const std::vector<float> dw0 = Data(s.oc * s.c * k * k, rng, false);
      const std::vector<float> db0 = Data(s.oc, rng, false);
      // The upstream gradient of each logical row is its distinct row's.
      const std::vector<float> g =
          Expand(Data(nd * out_img, rng, true), *map, out_img);

      Tensor xe = Leaf({nl, s.c, s.h, s.w}, Expand(x, *map, img),
                       Expand(dx0, *map, img));
      Tensor we = Leaf({s.oc, s.c, k, k}, w, dw0);
      Tensor be = Leaf({s.oc}, b, db0);
      Tensor ye = Conv2d(xe, we, be, s.stride, 1);
      Sum(Mul(ye, Tensor::FromData(ye.shape(), g))).Backward();

      Tensor xd = Leaf({nd, s.c, s.h, s.w}, x, dx0);
      Tensor wd = Leaf({s.oc, s.c, k, k}, w, dw0);
      Tensor bd = Leaf({s.oc}, b, db0);
      Tensor yd = Conv2d(xd, wd, bd, s.stride, 1, map);
      ASSERT_EQ(yd.dim(0), nd) << what;
      Tensor expanded = ExpandRows(yd, map);
      Sum(Mul(expanded, Tensor::FromData(expanded.shape(), g))).Backward();

      ExpectSameBytes(Copy(ye.data(), ye.numel()),
                      Expand(Copy(yd.data(), yd.numel()), *map, out_img),
                      what + " y");
      ExpectSameBytes(Copy(we.grad(), we.numel()),
                      Copy(wd.grad(), wd.numel()), what + " dW");
      ExpectSameBytes(Copy(be.grad(), be.numel()),
                      Copy(bd.grad(), bd.numel()), what + " db");
      ExpectFirstRows(Copy(xe.grad(), xe.numel()),
                      Copy(xd.grad(), xd.numel()), *map, img, what + " dX");
    }
  }
}

TEST_P(RowMapTest, LayerNormReluMatchesTheExpandedBatch) {
  // The paper net's three widths, then odd ones.
  uint64_t seed = 200;
  for (const MapCase& m : Maps()) {
    const RowMapPtr map = RowMap::Number(m.keys);
    const Index nd = map->distinct(), nl = map->logical();
    for (const Index f : {3200, 1600, 400, 1, 5, 54}) {
      const std::string what = m.name + " f" + std::to_string(f);
      Rng rng(seed += 10);
      std::vector<float> x = Data(nd * f, rng, true);
      // A constant row (variance 0) among the distinct rows.
      std::fill(x.begin(), x.begin() + f, 0.5f);
      const std::vector<float> dx0 = Data(nd * f, rng, false);
      const std::vector<float> gamma = Data(f, rng, true);
      const std::vector<float> beta = Data(f, rng, true);
      const std::vector<float> dg0 = Data(f, rng, false);
      const std::vector<float> db0 = Data(f, rng, false);
      const std::vector<float> g = Expand(Data(nd * f, rng, true), *map, f);

      Tensor xe = Leaf({nl, f}, Expand(x, *map, f), Expand(dx0, *map, f));
      Tensor ge = Leaf({f}, gamma, dg0);
      Tensor be = Leaf({f}, beta, db0);
      Tensor ye = LayerNormReluOp(xe, ge, be);
      Sum(Mul(ye, Tensor::FromData(ye.shape(), g))).Backward();

      Tensor xd = Leaf({nd, f}, x, dx0);
      Tensor gd = Leaf({f}, gamma, dg0);
      Tensor bd = Leaf({f}, beta, db0);
      Tensor yd = LayerNormReluOp(xd, gd, bd, map);
      Tensor expanded = ExpandRows(yd, map);
      Sum(Mul(expanded, Tensor::FromData(expanded.shape(), g))).Backward();

      ExpectSameBytes(Copy(ye.data(), ye.numel()),
                      Copy(expanded.data(), expanded.numel()), what + " y");
      ExpectSameBytes(Copy(ge.grad(), f), Copy(gd.grad(), f),
                      what + " dgamma");
      ExpectSameBytes(Copy(be.grad(), f), Copy(bd.grad(), f), what + " dbeta");
      ExpectFirstRows(Copy(xe.grad(), xe.numel()),
                      Copy(xd.grad(), xd.numel()), *map, f, what + " dx");
    }
  }
}

TEST_P(RowMapTest, LayerNormReluWithoutInputGradientKeepsParameterBytes) {
  // A frozen input: the mapped backward still keeps every distinct row's
  // g and xh for the dgamma/dbeta replay.
  const RowMapPtr map = RowMap::Number(Draws(250, 100, 9));
  const Index nd = map->distinct(), nl = map->logical(), f = 400;
  Rng rng(300);
  const std::vector<float> x = Data(nd * f, rng, true);
  const std::vector<float> gamma = Data(f, rng, true);
  const std::vector<float> beta = Data(f, rng, true);
  const std::vector<float> g = Expand(Data(nd * f, rng, true), *map, f);
  const std::vector<float> zeros(static_cast<size_t>(f), 0.0f);

  Tensor ge = Leaf({f}, gamma, zeros), be = Leaf({f}, beta, zeros);
  Tensor ye = LayerNormReluOp(
      Tensor::FromData({nl, f}, Expand(x, *map, f)), ge, be);
  Sum(Mul(ye, Tensor::FromData(ye.shape(), g))).Backward();

  Tensor gd = Leaf({f}, gamma, zeros), bd = Leaf({f}, beta, zeros);
  Tensor expanded =
      ExpandRows(LayerNormReluOp(Tensor::FromData({nd, f}, x), gd, bd, map),
                 map);
  Sum(Mul(expanded, Tensor::FromData(expanded.shape(), g))).Backward();

  ExpectSameBytes(Copy(ge.grad(), f), Copy(gd.grad(), f), "dgamma");
  ExpectSameBytes(Copy(be.grad(), f), Copy(bd.grad(), f), "dbeta");
}

/// In/out widths of the products MatMul and AddBias take a map through:
/// the paper net's FC and three heads, then small odd ones.
struct LinearShape {
  Index in, out;
};
const LinearShape kLinearShapes[] = {{400, 256}, {256, 34}, {256, 4},
                                     {256, 1},   {5, 3},    {17, 33}};

TEST_P(RowMapTest, MatMulMatchesTheExpandedBatch) {
  uint64_t seed = 400;
  for (const MapCase& m : Maps()) {
    const RowMapPtr map = RowMap::Number(m.keys);
    const Index nd = map->distinct(), nl = map->logical();
    for (const LinearShape& s : kLinearShapes) {
      const std::string what = m.name + " " + std::to_string(s.in) + "x" +
                               std::to_string(s.out);
      Rng rng(seed += 10);
      const std::vector<float> x = Data(nd * s.in, rng, true);
      const std::vector<float> dx0 = Data(nd * s.in, rng, false);
      const std::vector<float> w = Data(s.in * s.out, rng, true);
      const std::vector<float> dw0 = Data(s.in * s.out, rng, false);
      const std::vector<float> g =
          Expand(Data(nd * s.out, rng, true), *map, s.out);

      Tensor xe = Leaf({nl, s.in}, Expand(x, *map, s.in),
                       Expand(dx0, *map, s.in));
      Tensor we = Leaf({s.in, s.out}, w, dw0);
      Tensor ye = MatMul(xe, we);
      Sum(Mul(ye, Tensor::FromData(ye.shape(), g))).Backward();

      Tensor xd = Leaf({nd, s.in}, x, dx0);
      Tensor wd = Leaf({s.in, s.out}, w, dw0);
      Tensor yd = MatMul(xd, wd, map);
      ASSERT_EQ(yd.dim(0), nd) << what;
      Tensor expanded = ExpandRows(yd, map);
      Sum(Mul(expanded, Tensor::FromData(expanded.shape(), g))).Backward();

      ExpectSameBytes(Copy(ye.data(), ye.numel()),
                      Copy(expanded.data(), expanded.numel()), what + " y");
      ExpectSameBytes(Copy(we.grad(), we.numel()),
                      Copy(wd.grad(), wd.numel()), what + " dW");
      ExpectFirstRows(Copy(xe.grad(), xe.numel()),
                      Copy(xd.grad(), xd.numel()), *map, s.in, what + " dX");
    }
  }
}

TEST_P(RowMapTest, AddBiasMatchesTheExpandedBatch) {
  uint64_t seed = 500;
  for (const MapCase& m : Maps()) {
    const RowMapPtr map = RowMap::Number(m.keys);
    const Index nd = map->distinct(), nl = map->logical();
    for (const Index d : {256, 34, 4, 1, 33}) {
      const std::string what = m.name + " d" + std::to_string(d);
      Rng rng(seed += 10);
      const std::vector<float> x = Data(nd * d, rng, true);
      const std::vector<float> dx0 = Data(nd * d, rng, false);
      const std::vector<float> b = Data(d, rng, true);
      const std::vector<float> db0 = Data(d, rng, false);
      const std::vector<float> g = Expand(Data(nd * d, rng, true), *map, d);

      Tensor xe = Leaf({nl, d}, Expand(x, *map, d), Expand(dx0, *map, d));
      Tensor be = Leaf({d}, b, db0);
      Tensor ye = AddBias(xe, be);
      Sum(Mul(ye, Tensor::FromData(ye.shape(), g))).Backward();

      Tensor xd = Leaf({nd, d}, x, dx0);
      Tensor bd = Leaf({d}, b, db0);
      Tensor expanded = ExpandRows(AddBias(xd, bd, map), map);
      Sum(Mul(expanded, Tensor::FromData(expanded.shape(), g))).Backward();

      ExpectSameBytes(Copy(ye.data(), ye.numel()),
                      Copy(expanded.data(), expanded.numel()), what + " y");
      ExpectSameBytes(Copy(be.grad(), d), Copy(bd.grad(), d), what + " db");
      ExpectFirstRows(Copy(xe.grad(), xe.numel()),
                      Copy(xd.grad(), xd.numel()), *map, d, what + " dx");
    }
  }
}

TEST_P(RowMapTest, LinearMatchesTheExpandedBatch) {
  // Two layers from one seed hold the same weights; both parameter
  // gradients start from the same nonzero bytes.
  uint64_t seed = 600;
  for (const MapCase& m : Maps()) {
    const RowMapPtr map = RowMap::Number(m.keys);
    const Index nd = map->distinct(), nl = map->logical();
    for (const LinearShape& s : kLinearShapes) {
      const std::string what = m.name + " " + std::to_string(s.in) + "x" +
                               std::to_string(s.out);
      Rng rng(seed += 10);
      const std::vector<float> x = Data(nd * s.in, rng, true);
      const std::vector<float> dx0 = Data(nd * s.in, rng, false);
      const std::vector<float> dw0 = Data(s.in * s.out, rng, false);
      const std::vector<float> db0 = Data(s.out, rng, false);
      const std::vector<float> g =
          Expand(Data(nd * s.out, rng, true), *map, s.out);
      Rng init_e(seed), init_d(seed);
      const Linear le(s.in, s.out, init_e), ld(s.in, s.out, init_d);
      for (const Linear* l : {&le, &ld}) {
        std::vector<Tensor> p = l->Parameters();
        p[0].ZeroGrad();
        p[1].ZeroGrad();
        std::copy(dw0.begin(), dw0.end(), p[0].grad());
        std::copy(db0.begin(), db0.end(), p[1].grad());
      }

      Tensor xe = Leaf({nl, s.in}, Expand(x, *map, s.in),
                       Expand(dx0, *map, s.in));
      Tensor ye = le.Forward(xe);
      Sum(Mul(ye, Tensor::FromData(ye.shape(), g))).Backward();

      Tensor xd = Leaf({nd, s.in}, x, dx0);
      Tensor expanded = ExpandRows(ld.Forward(xd, map), map);
      Sum(Mul(expanded, Tensor::FromData(expanded.shape(), g))).Backward();

      ExpectSameBytes(Copy(ye.data(), ye.numel()),
                      Copy(expanded.data(), expanded.numel()), what + " y");
      const std::vector<Tensor> pe = le.Parameters(), pd = ld.Parameters();
      ExpectSameBytes(Copy(pe[0].grad(), pe[0].numel()),
                      Copy(pd[0].grad(), pd[0].numel()), what + " dW");
      ExpectSameBytes(Copy(pe[1].grad(), s.out), Copy(pd[1].grad(), s.out),
                      what + " db");
      ExpectFirstRows(Copy(xe.grad(), xe.numel()),
                      Copy(xd.grad(), xd.numel()), *map, s.in, what + " dX");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pool, RowMapTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Pool" + std::to_string(info.param);
                         });

TEST(ExpandRowsTest, GathersRowsAndHandsBackTheFirstRowsGradient) {
  const RowMapPtr map = RowMap::Number({4, 9, 4, 4, 2});  // rows 0 1 0 0 2
  Tensor x = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6}, true);
  Tensor y = ExpandRows(x, map);
  ASSERT_EQ(y.shape(), (Shape{5, 2}));
  EXPECT_EQ(Copy(y.data(), y.numel()),
            (std::vector<float>{1, 2, 3, 4, 1, 2, 1, 2, 5, 6}));
  // Every logical row of distinct row 0 carries the same gradient.
  Sum(Mul(y, Tensor::FromData({5, 2}, {7, 8, 9, 10, 7, 8, 7, 8, 11, 12})))
      .Backward();
  EXPECT_EQ(Copy(x.grad(), x.numel()),
            (std::vector<float>{7, 8, 9, 10, 11, 12}));
}

TEST(ExpandRowsDeathTest, RejectsDifferentGradientsForOneDistinctRow) {
  const RowMapPtr map = RowMap::Number({4, 9, 4});
  Tensor x = Tensor::FromData({2, 2}, {1, 2, 3, 4}, true);
  Tensor loss = Sum(Mul(ExpandRows(x, map),
                        Tensor::FromData({3, 2}, {1, 1, 1, 1, 1, 2})));
  EXPECT_DEATH(loss.Backward(), "carry different gradients");
}

}  // namespace
}  // namespace cews::nn
