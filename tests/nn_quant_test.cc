// Per-channel int8 quantization and the packed int8 GEMM kernels.
//
// The quantizer promises a per-channel round-trip error of at most half a
// quantization step, exact zero preservation, and saturation confined to
// [-127, 127]. The kernels promise (a) exact agreement with an integer
// reference (int32 accumulation has no rounding, so the only float ops are
// the per-element dequantize epilogue), (b) an analytic error bound against
// the fp32 product, and (c) bitwise identity across thread counts — the
// partition-invariance contract the serve path's determinism rests on. All
// three are exercised over the same edge-shape grid as nn_gemm_test.
#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/conv.h"
#include "nn/gemm_int8.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace cews::nn {
namespace {

std::vector<float> RandomData(size_t n, uint64_t seed,
                              double zero_fraction = 0.0) {
  Rng rng(seed);
  std::vector<float> data(n);
  for (float& v : data) {
    if (zero_fraction > 0.0 && rng.Uniform(0.0, 1.0) < zero_fraction) {
      v = 0.0f;
      continue;
    }
    v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return data;
}

struct GemmCase {
  Index m, n, k;
};

// Same grid as nn_gemm_test: register-tile multiples (kNrQ=32, kMrQ=4),
// off-by-ones, long/short reductions, empty dimensions.
const GemmCase kCases[] = {
    {1, 1, 1},    {1, 32, 1},    {1, 1, 129},  {4, 32, 128}, {3, 5, 7},
    {4, 31, 16},  {5, 33, 129},  {7, 64, 130}, {33, 100, 64}, {64, 48, 96},
    {2, 1, 257},  {31, 32, 33},  {1, 257, 4},  {8, 96, 41},  {40, 36, 100},
    {0, 5, 4},    {4, 0, 5},     {2, 3, 0},
};

std::string CaseName(const GemmCase& c, int threads) {
  return "m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + " threads=" + std::to_string(threads);
}

/// Runs quantize + pack + Int8GemmPrepacked for one case, returning C.
std::vector<float> RunInt8Gemm(const GemmCase& c, const std::vector<float>& a,
                               const std::vector<float>& b,
                               const std::vector<float>& bias_row,
                               const std::vector<float>& bias_col,
                               std::vector<int8_t>* qa_out = nullptr,
                               std::vector<int8_t>* qb_out = nullptr,
                               std::vector<float>* sa_out = nullptr,
                               std::vector<float>* sb_out = nullptr) {
  std::vector<int8_t> qa(static_cast<size_t>(c.m * c.k));
  std::vector<int8_t> qb(static_cast<size_t>(c.k * c.n));
  std::vector<float> sa(static_cast<size_t>(c.m));
  std::vector<float> sb(static_cast<size_t>(c.n));
  gemm::QuantizeRowsInt8(c.m, c.k, a.data(), c.k, qa.data(), sa.data());
  gemm::QuantizeColsInt8(c.k, c.n, b.data(), c.n, qb.data(), sb.data());
  std::vector<int8_t> packed(static_cast<size_t>(gemm::Int8PanelBytes(c.k, c.n)));
  gemm::PackInt8NN(c.k, c.n, qb.data(), c.n, packed.data());
  std::vector<float> cmat(static_cast<size_t>(c.m * c.n), -777.0f);
  gemm::Int8GemmPrepacked(c.m, c.n, c.k, qa.data(), c.k, sa.data(),
                          packed.data(), sb.data(), bias_row.data(),
                          bias_col.data(), cmat.data(), c.n);
  if (qa_out != nullptr) *qa_out = qa;
  if (qb_out != nullptr) *qb_out = qb;
  if (sa_out != nullptr) *sa_out = sa;
  if (sb_out != nullptr) *sb_out = sb;
  return cmat;
}

TEST(QuantizeTest, RoundTripErrorBoundedByHalfStepPerChannel) {
  const Index out = 7, in = 53;
  std::vector<float> data = RandomData(static_cast<size_t>(in * out), 21);
  // Scale channels very differently so a shared scale would blow the bound.
  for (Index l = 0; l < in; ++l) {
    for (Index ch = 0; ch < out; ++ch) {
      data[static_cast<size_t>(l * out + ch)] *=
          std::pow(10.0f, static_cast<float>(ch) - 3.0f);
    }
  }
  const Tensor w = Tensor::FromData({in, out}, data);
  const quant::QuantizedTensor qt = quant::QuantizeLinearWeight(w);
  ASSERT_EQ(qt.channels, out);
  ASSERT_EQ(qt.per_channel, in);
  std::vector<float> round_trip(static_cast<size_t>(in));
  for (Index ch = 0; ch < out; ++ch) {
    quant::DequantizeChannel(qt, ch, round_trip.data());
    const float step = qt.scales[static_cast<size_t>(ch)];
    for (Index l = 0; l < in; ++l) {
      const float orig = data[static_cast<size_t>(l * out + ch)];
      EXPECT_LE(std::fabs(round_trip[static_cast<size_t>(l)] - orig),
                0.5f * step + 1e-12f)
          << "ch=" << ch << " l=" << l;
    }
  }
}

TEST(QuantizeTest, SaturatesAtPlusMinus127) {
  // Row quantizer: the absmax element must map to exactly +/-127 and no
  // code may leave [-127, 127] (-128 is excluded from the symmetric grid).
  const Index k = 64;
  std::vector<float> row(static_cast<size_t>(k));
  for (Index l = 0; l < k; ++l) {
    row[static_cast<size_t>(l)] = static_cast<float>(l - 32) * 0.25f;
  }
  row[5] = -9.0f;  // absmax, negative
  std::vector<int8_t> q(static_cast<size_t>(k));
  float scale = 0.0f;
  gemm::QuantizeRowsInt8(1, k, row.data(), k, q.data(), &scale);
  EXPECT_FLOAT_EQ(scale, 9.0f / 127.0f);
  EXPECT_EQ(q[5], -127);
  for (Index l = 0; l < k; ++l) {
    EXPECT_GE(q[static_cast<size_t>(l)], -127);
    EXPECT_LE(q[static_cast<size_t>(l)], 127);
  }
}

TEST(QuantizeTest, ExactZerosSurviveRoundTrip) {
  const Index in = 16, out = 3;
  std::vector<float> data = RandomData(static_cast<size_t>(in * out), 5);
  data[static_cast<size_t>(0 * out + 1)] = 0.0f;
  data[static_cast<size_t>(7 * out + 1)] = 0.0f;
  const quant::QuantizedTensor qt =
      quant::QuantizeLinearWeight(Tensor::FromData({in, out}, data));
  std::vector<float> round_trip(static_cast<size_t>(in));
  quant::DequantizeChannel(qt, 1, round_trip.data());
  EXPECT_EQ(round_trip[0], 0.0f);  // exactly, not approximately
  EXPECT_EQ(round_trip[7], 0.0f);
  EXPECT_EQ(qt.rows.data()[1 * in + 0], 0);
  EXPECT_EQ(qt.rows.data()[1 * in + 7], 0);
}

TEST(QuantizeTest, AllEqualChannelMapsTo127) {
  // A channel whose entries are all the same value v: scale = |v|/127,
  // every code is +/-127, and the round trip recovers v to float rounding.
  const Index in = 33, out = 2;
  const float v = 0.37f;
  std::vector<float> data(static_cast<size_t>(in * out));
  for (Index l = 0; l < in; ++l) {
    data[static_cast<size_t>(l * out + 0)] = v;
    data[static_cast<size_t>(l * out + 1)] = -2.0f * v;
  }
  const quant::QuantizedTensor qt =
      quant::QuantizeLinearWeight(Tensor::FromData({in, out}, data));
  std::vector<float> round_trip(static_cast<size_t>(in));
  for (Index ch = 0; ch < out; ++ch) {
    const float want = ch == 0 ? v : -2.0f * v;
    quant::DequantizeChannel(qt, ch, round_trip.data());
    for (Index l = 0; l < in; ++l) {
      EXPECT_EQ(qt.rows.data()[ch * in + l], want > 0 ? 127 : -127);
      EXPECT_NEAR(round_trip[static_cast<size_t>(l)], want,
                  1e-6f * std::fabs(want));
    }
  }
}

TEST(QuantizeTest, AllZeroChannelGetsUnitScaleAndZeroCodes) {
  const Index in = 8, out = 2;
  std::vector<float> data(static_cast<size_t>(in * out), 0.0f);
  for (Index l = 0; l < in; ++l) {
    data[static_cast<size_t>(l * out + 1)] = 0.5f;  // channel 1 non-zero
  }
  const quant::QuantizedTensor qt =
      quant::QuantizeLinearWeight(Tensor::FromData({in, out}, data));
  EXPECT_FLOAT_EQ(qt.scales[0], 1.0f);
  for (Index l = 0; l < in; ++l) EXPECT_EQ(qt.rows.data()[l], 0);
}

TEST(Int8GemmTest, MatchesIntegerReferenceAcrossShapesAndThreads) {
  for (const int threads : {0, 1, 4}) {
    runtime::SetGlobalPoolThreads(threads);
    for (const GemmCase& c : kCases) {
      const auto a =
          RandomData(static_cast<size_t>(c.m * c.k), 31, /*zeros=*/0.2);
      const auto b = RandomData(static_cast<size_t>(c.k * c.n), 37);
      const auto bias_row = RandomData(static_cast<size_t>(c.m), 41);
      const auto bias_col = RandomData(static_cast<size_t>(c.n), 43);
      std::vector<int8_t> qa, qb;
      std::vector<float> sa, sb;
      const std::vector<float> got =
          RunInt8Gemm(c, a, b, bias_row, bias_col, &qa, &qb, &sa, &sb);
      // Integer reference: the int32 accumulation is exact, so the only
      // slack is the float dequantize epilogue (a handful of ulps).
      for (Index i = 0; i < c.m; ++i) {
        for (Index j = 0; j < c.n; ++j) {
          int64_t acc = 0;
          for (Index l = 0; l < c.k; ++l) {
            acc += static_cast<int64_t>(qa[static_cast<size_t>(i * c.k + l)]) *
                   static_cast<int64_t>(qb[static_cast<size_t>(l * c.n + j)]);
          }
          const double want =
              static_cast<double>(sa[static_cast<size_t>(i)]) *
                  static_cast<double>(sb[static_cast<size_t>(j)]) *
                  static_cast<double>(acc) +
              bias_row[static_cast<size_t>(i)] +
              bias_col[static_cast<size_t>(j)];
          const double tol = 1e-5 * (1.0 + std::fabs(want));
          EXPECT_NEAR(got[static_cast<size_t>(i * c.n + j)], want, tol)
              << CaseName(c, threads) << " i=" << i << " j=" << j;
        }
      }
    }
  }
  runtime::SetGlobalPoolThreads(1);
}

TEST(Int8GemmTest, ErrorVsFp32WithinAnalyticBound) {
  // a = qa*sa + ea with |ea| <= sa/2 (same for b), so per summand
  // |a*b - (qa sa)(qb sb)| <= |a| sb/2 + |b| sa/2 + sa sb/4. The bound is
  // checked per output element; a violation means a quantizer or kernel
  // bug, not bad luck.
  runtime::SetGlobalPoolThreads(1);
  for (const GemmCase& c : kCases) {
    if (c.m == 0 || c.n == 0 || c.k == 0) continue;
    const auto a = RandomData(static_cast<size_t>(c.m * c.k), 51);
    const auto b = RandomData(static_cast<size_t>(c.k * c.n), 53);
    const std::vector<float> zero_row(static_cast<size_t>(c.m), 0.0f);
    const std::vector<float> zero_col(static_cast<size_t>(c.n), 0.0f);
    std::vector<float> sa, sb;
    const std::vector<float> got =
        RunInt8Gemm(c, a, b, zero_row, zero_col, nullptr, nullptr, &sa, &sb);
    for (Index i = 0; i < c.m; ++i) {
      for (Index j = 0; j < c.n; ++j) {
        double fp32 = 0.0, abs_a = 0.0, abs_b = 0.0;
        for (Index l = 0; l < c.k; ++l) {
          const double av = a[static_cast<size_t>(i * c.k + l)];
          const double bv = b[static_cast<size_t>(l * c.n + j)];
          fp32 += av * bv;
          abs_a += std::fabs(av);
          abs_b += std::fabs(bv);
        }
        const double half_sa = 0.5 * sa[static_cast<size_t>(i)];
        const double half_sb = 0.5 * sb[static_cast<size_t>(j)];
        const double bound = abs_a * half_sb + abs_b * half_sa +
                             static_cast<double>(c.k) * half_sa * half_sb +
                             1e-5 * (1.0 + std::fabs(fp32));
        EXPECT_LE(
            std::fabs(got[static_cast<size_t>(i * c.n + j)] - fp32), bound)
            << CaseName(c, 1) << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Int8GemmTest, BitwiseIdenticalAcrossThreadCounts) {
  // The int32 accumulation is exact, so no fmaf pinning is needed: any
  // row partition produces identical bits.
  for (const GemmCase& c : kCases) {
    const auto a = RandomData(static_cast<size_t>(c.m * c.k), 61);
    const auto b = RandomData(static_cast<size_t>(c.k * c.n), 67);
    const auto bias_row = RandomData(static_cast<size_t>(c.m), 71);
    const auto bias_col = RandomData(static_cast<size_t>(c.n), 73);
    std::vector<std::vector<float>> runs;
    for (const int threads : {0, 1, 4}) {
      runtime::SetGlobalPoolThreads(threads);
      runs.push_back(RunInt8Gemm(c, a, b, bias_row, bias_col));
    }
    for (size_t r = 1; r < runs.size(); ++r) {
      ASSERT_EQ(runs[0].size(), runs[r].size());
      if (runs[0].empty()) continue;
      EXPECT_EQ(std::memcmp(runs[0].data(), runs[r].data(),
                            runs[0].size() * sizeof(float)),
                0)
          << CaseName(c, r == 1 ? 1 : 4);
    }
  }
  runtime::SetGlobalPoolThreads(1);
}

TEST(Int8GemmTest, PrepackedLinearWeightMatchesUnpackedReference) {
  // The publish-time pipeline (QuantizeLinearWeight -> stored panel) must
  // produce the same product as packing the quantized rows on the fly.
  const Index m = 5, k = 96, n = 33;
  const auto x = RandomData(static_cast<size_t>(m * k), 81);
  const auto wdata = RandomData(static_cast<size_t>(k * n), 83);
  const quant::QuantizedTensor qt =
      quant::QuantizeLinearWeight(Tensor::FromData({k, n}, wdata));
  ASSERT_FALSE(qt.packed.empty());

  std::vector<int8_t> xq(static_cast<size_t>(m * k));
  std::vector<float> sx(static_cast<size_t>(m));
  gemm::QuantizeRowsInt8(m, k, x.data(), k, xq.data(), sx.data());
  const std::vector<float> bias = RandomData(static_cast<size_t>(n), 85);

  std::vector<float> via_bundle(static_cast<size_t>(m * n));
  gemm::Int8GemmPrepacked(m, n, k, xq.data(), k, sx.data(), qt.packed.data(),
                          qt.scales.data(), nullptr, bias.data(),
                          via_bundle.data(), n);

  // On-the-fly: the quantized rows ARE the Y operand of PackInt8NT.
  std::vector<int8_t> packed(static_cast<size_t>(gemm::Int8PanelBytes(k, n)));
  gemm::PackInt8NT(k, n, qt.rows.data(), k, packed.data());
  std::vector<float> via_fresh(static_cast<size_t>(m * n));
  gemm::Int8GemmPrepacked(m, n, k, xq.data(), k, sx.data(), packed.data(),
                          qt.scales.data(), nullptr, bias.data(),
                          via_fresh.data(), n);
  EXPECT_EQ(std::memcmp(via_bundle.data(), via_fresh.data(),
                        via_bundle.size() * sizeof(float)),
            0);
}

TEST(Int8GemmTest, FusedQuantizePackMatchesSeparateSteps) {
  // The im2col reference fuses column-quantize and panel-pack into one
  // pass; it must be bit-identical — codes, scales, and pad bytes — to
  // running QuantizeColsInt8 then PackInt8NN, across full tiles (w == 32),
  // half tiles (w == 16), ragged widths, and k tails.
  for (const GemmCase& c : kCases) {
    if (c.k <= 0 || c.n <= 0) continue;
    const auto b = RandomData(static_cast<size_t>(c.k * c.n), 91,
                              /*zero_fraction=*/0.1);
    std::vector<int8_t> qb(static_cast<size_t>(c.k * c.n));
    std::vector<float> sb(static_cast<size_t>(c.n));
    gemm::QuantizeColsInt8(c.k, c.n, b.data(), c.n, qb.data(), sb.data());
    const size_t bytes = static_cast<size_t>(gemm::Int8PanelBytes(c.k, c.n));
    std::vector<int8_t> packed(bytes, int8_t{-99});
    gemm::PackInt8NN(c.k, c.n, qb.data(), c.n, packed.data());

    std::vector<int8_t> fused(bytes, int8_t{-99});
    std::vector<float> sb_fused(static_cast<size_t>(c.n));
    gemm::QuantizePackColsInt8(c.k, c.n, b.data(), c.n, fused.data(),
                               sb_fused.data());
    EXPECT_EQ(std::memcmp(packed.data(), fused.data(), bytes), 0)
        << CaseName(c, 1);
    EXPECT_EQ(std::memcmp(sb.data(), sb_fused.data(),
                          sb.size() * sizeof(float)),
              0)
        << CaseName(c, 1);
  }
}

/// Byte (l, q) of a packed panel of n columns and depth k.
int8_t PanelByte(const int8_t* packed, Index k, Index n, Index l, Index q) {
  const Index k4 = (k + gemm::kKuQ - 1) / gemm::kKuQ * gemm::kKuQ;
  const Index c0 = q / gemm::kNrQ * gemm::kNrQ;
  const Index w = std::min<Index>(gemm::kNrQ, n - c0);
  return packed[k4 * c0 + ((l / gemm::kKuQ) * w + (q - c0)) * gemm::kKuQ +
                l % gemm::kKuQ];
}

TEST(Int8GemmTest, PatchPanelMatchesIm2ColThenQuantizePack) {
  // The patch panel must hold, for every output pixel, the scale and the
  // codes (k tail included) that the fused column quantize-pack gives for
  // that pixel's column of the im2col matrix, whose column p of tap l is
  // xpad[taps[l] + pixels[p]] in the plan's zero-padded image. Geometries
  // cover the trunk's convs and strides 1-3, paddings 0-2, 1x1 to 5x5
  // kernels, non-square images and depths off every k-group; inputs carry
  // ±0 and whole zero columns.
  struct Geometry {
    Index c, h, w, kh, kw;
    int stride, padding;
  };
  const Geometry kGeometries[] = {
      {3, 20, 20, 3, 3, 1, 1},  {8, 20, 20, 3, 3, 2, 1},
      {16, 10, 10, 3, 3, 2, 1}, {3, 12, 12, 3, 3, 1, 1},
      {4, 6, 6, 3, 3, 2, 1},    {6, 3, 3, 3, 3, 2, 1},
      {1, 7, 5, 3, 3, 1, 0},    {2, 9, 11, 5, 5, 3, 2},
      {5, 8, 8, 1, 1, 2, 0},    {3, 5, 9, 3, 5, 1, 2},
      {17, 4, 4, 3, 3, 1, 1},   {2, 13, 13, 3, 3, 2, 2},
  };
  for (const Geometry& g : kGeometries) {
    const conv::Plan plan(1, g.c, g.h, g.w, /*oc=*/1, g.kh, g.kw, g.stride,
                          g.padding);
    const gemm::Int8PatchPlan pp(plan);
    const Index k = plan.ck2(), n = plan.ohow();
    const std::string where = "c=" + std::to_string(g.c) + " h=" +
                              std::to_string(g.h) + " w=" +
                              std::to_string(g.w) + " k=" +
                              std::to_string(g.kh) + "x" +
                              std::to_string(g.kw) + " stride=" +
                              std::to_string(g.stride) + " padding=" +
                              std::to_string(g.padding);
    ASSERT_EQ(pp.cols % 16, 0) << where;
    ASSERT_GE(pp.cols, (plan.oh - 1) * pp.pitch + plan.ow) << where;
    std::vector<float> img =
        RandomData(static_cast<size_t>(g.c * g.h * g.w), 97, 0.3);
    for (size_t i = 0; i < img.size(); i += 7) img[i] = -0.0f;
    // An all-zero channel; with one channel, an all-zero image, whose
    // columns all take scale 1.0.
    std::fill(img.begin(), img.begin() + g.h * g.w, 0.0f);

    // Reference: pad, unfold through the plan's tables, quantize-pack.
    std::vector<float> xpad(static_cast<size_t>(plan.PaddedFloats()), 0.0f);
    for (Index ic = 0; ic < g.c; ++ic) {
      for (Index y = 0; y < g.h; ++y) {
        for (Index x = 0; x < g.w; ++x) {
          xpad[static_cast<size_t>((ic * plan.hp + y + g.padding) * plan.wp +
                                   x + g.padding)] =
              img[static_cast<size_t>((ic * g.h + y) * g.w + x)];
        }
      }
    }
    std::vector<float> cols(static_cast<size_t>(k * n));
    for (Index l = 0; l < k; ++l) {
      for (Index p = 0; p < n; ++p) {
        cols[static_cast<size_t>(l * n + p)] =
            xpad[static_cast<size_t>(plan.taps[l] + plan.pixels[p])];
      }
    }
    std::vector<int8_t> want(static_cast<size_t>(gemm::Int8PanelBytes(k, n)));
    std::vector<float> want_scales(static_cast<size_t>(n));
    gemm::QuantizePackColsInt8(k, n, cols.data(), n, want.data(),
                               want_scales.data());

    AlignedScopedBytes got(gemm::Int8PanelBytes(k, pp.cols));
    std::vector<float> got_scales(static_cast<size_t>(pp.cols));
    std::vector<float> scratch(static_cast<size_t>(pp.ScratchFloats()), NAN);
    gemm::QuantizePackPatchesInt8(pp, img.data(), scratch.data(), got.data(),
                                  got_scales.data());
    const Index k4 = (k + gemm::kKuQ - 1) / gemm::kKuQ * gemm::kKuQ;
    for (Index p = 0; p < n; ++p) {
      const Index q = (p / plan.ow) * pp.pitch + p % plan.ow;
      EXPECT_EQ(std::memcmp(&got_scales[static_cast<size_t>(q)],
                            &want_scales[static_cast<size_t>(p)],
                            sizeof(float)),
                0)
          << where << " pixel " << p;
      for (Index l = 0; l < k4; ++l) {
        ASSERT_EQ(PanelByte(got.data(), k, pp.cols, l, q),
                  PanelByte(want.data(), k, n, l, p))
            << where << " pixel " << p << " tap " << l;
      }
    }

    // DropPadColumns keeps exactly the output pixels' columns, in order.
    std::vector<float> c(static_cast<size_t>(2 * pp.cols));
    for (size_t i = 0; i < c.size(); ++i) c[i] = static_cast<float>(i);
    std::vector<float> y(static_cast<size_t>(2 * n));
    gemm::DropPadColumns(pp, 2, c.data(), y.data());
    for (Index r = 0; r < 2; ++r) {
      for (Index p = 0; p < n; ++p) {
        EXPECT_EQ(y[static_cast<size_t>(r * n + p)],
                  static_cast<float>(r * pp.cols + (p / plan.ow) * pp.pitch +
                                     p % plan.ow))
            << where;
      }
    }
  }
}

TEST(Int8GemmTest, LinearRowsF32MatchesBiasThenFmaChain) {
  // Every output starts from its bias and takes one fmaf per reduction
  // step, l ascending, for any number of rows (row blocks and their short
  // tails) and of columns (full and partial lane blocks).
  for (const Index m : {Index{1}, Index{7}, Index{8}, Index{11}, Index{17}}) {
    for (const Index n : {Index{1}, Index{4}, Index{16}, Index{34}}) {
      const Index k = 37;
      auto x = RandomData(static_cast<size_t>(m * k), 101, 0.3);
      x[0] = -0.0f;
      const auto w = RandomData(static_cast<size_t>(k * n), 103);
      auto bias = RandomData(static_cast<size_t>(n), 107);
      bias[0] = -0.0f;
      std::vector<float> want(static_cast<size_t>(m * n));
      for (Index i = 0; i < m; ++i) {
        for (Index j = 0; j < n; ++j) {
          float acc = bias[static_cast<size_t>(j)];
          for (Index l = 0; l < k; ++l) {
            acc = std::fmaf(x[static_cast<size_t>(i * k + l)],
                            w[static_cast<size_t>(l * n + j)], acc);
          }
          want[static_cast<size_t>(i * n + j)] = acc;
        }
      }
      std::vector<float> got(static_cast<size_t>(m * n), NAN);
      gemm::LinearRowsF32(m, n, k, x.data(), w.data(), bias.data(),
                          got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(WorkspaceAlignmentTest, AlignedScopedBytesHonors64ByteContract) {
  for (const Index bytes : {Index{0}, Index{1}, Index{63}, Index{64},
                            Index{65}, Index{4096}, Index{12345}}) {
    AlignedScopedBytes buf(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kPanelAlignment,
              0u)
        << "bytes=" << bytes;
    EXPECT_EQ(buf.size(), bytes);
    // The span is writable end to end.
    if (bytes > 0) {
      std::memset(buf.data(), 0x5A, static_cast<size_t>(bytes));
      EXPECT_EQ(buf.data()[bytes - 1], 0x5A);
    }
  }
}

TEST(WorkspaceAlignmentTest, AlignedInt8BufferStaysAlignedAfterCopyAndMove) {
  quant::AlignedInt8Buffer original(1000);
  std::memset(original.data(), 7, 1000);
  EXPECT_EQ(
      reinterpret_cast<std::uintptr_t>(original.data()) % kPanelAlignment,
      0u);
  quant::AlignedInt8Buffer copy = original;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % kPanelAlignment,
            0u);
  EXPECT_EQ(copy.data()[999], 7);
  quant::AlignedInt8Buffer moved = std::move(original);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) % kPanelAlignment,
            0u);
  EXPECT_EQ(moved.data()[0], 7);
}

}  // namespace
}  // namespace cews::nn
