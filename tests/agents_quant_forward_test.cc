// Bitwise spec of the int8 policy forward (agents/quant_policy.h).
//
// QuantPolicyForward reads each conv's patches from a padded copy of the
// image straight into the int8 panel, runs every panel tile on the
// full-width kernel, normalizes with the shared row-lane LayerNorm and runs
// the heads with several rows in registers. The reference below is the
// plain im2col lowering, with each multiply-add written out as an fma: an
// im2col of each image, the fused column quantize-pack, the int8 dot
// kernel, one LayerNorm + ReLU loop per image and a plain loop per head.
// Both must give the same bytes for every logit and value, on every net
// shape the repository serves, at every batch size, for inputs with signed
// zeros, all-zero planes and images (whose columns take scale 1.0) and
// values spanning many magnitudes, and at any pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "agents/policy_net.h"
#include "agents/quant_policy.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/gemm_int8.h"
#include "nn/quant.h"
#include "nn/workspace.h"

namespace cews::agents {
namespace {

using nn::Index;
using nn::quant::QuantizedParams;

// ---------------------------------------------------------------------------
// Reference: the per-image im2col lowering.
// ---------------------------------------------------------------------------

/// Geometry of one 3x3, padding-1 conv stage of the trunk.
struct StageShape {
  Index c, h;    // input [c, h, h]
  Index oc, oh;  // output [oc, oh, oh]
  int stride;
  Index ck2() const { return c * 9; }
  Index ohow() const { return oh * oh; }
};

Index ConvOut(Index in, int stride) { return (in + 2 - 3) / stride + 1; }

/// Unfolds one [c, h, h] image into cols [ck2, ohow]; padding taps are zeros.
void Im2Col3x3(const StageShape& s, const float* img, float* cols) {
  const Index ohow = s.ohow();
  for (Index ic = 0; ic < s.c; ++ic) {
    const float* plane = img + ic * s.h * s.h;
    for (Index ky = 0; ky < 3; ++ky) {
      for (Index kx = 0; kx < 3; ++kx) {
        float* row = cols + ((ic * 3 + ky) * 3 + kx) * ohow;
        for (Index y = 0; y < s.oh; ++y) {
          const Index iy = y * s.stride - 1 + ky;
          float* dst = row + y * s.oh;
          for (Index x = 0; x < s.oh; ++x) {
            const Index ix = x * s.stride - 1 + kx;
            dst[x] = (iy < 0 || iy >= s.h || ix < 0 || ix >= s.h)
                         ? 0.0f
                         : plane[iy * s.h + ix];
          }
        }
      }
    }
  }
}

/// conv -> LayerNorm -> ReLU for one stage, one image at a time.
void ReferenceStage(const StageShape& s, Index batch,
                    const nn::quant::QuantizedTensor& wq, const float* bias,
                    const float* ln_g, const float* ln_b, const float* in,
                    float* out) {
  const Index ck2 = s.ck2(), ohow = s.ohow(), f = s.oc * ohow;
  std::vector<float> cols(static_cast<size_t>(ck2 * ohow));
  std::vector<float> col_scales(static_cast<size_t>(ohow));
  nn::AlignedScopedBytes panel(nn::gemm::Int8PanelBytes(ck2, ohow));
  for (Index img = 0; img < batch; ++img) {
    Im2Col3x3(s, in + img * s.c * s.h * s.h, cols.data());
    nn::gemm::QuantizePackColsInt8(ck2, ohow, cols.data(), ohow, panel.data(),
                                   col_scales.data());
    float* o = out + img * f;
    nn::gemm::Int8DotRows(0, s.oc, ohow, ck2, wq.rows.data(), ck2,
                          wq.scales.data(), panel.data(), col_scales.data(),
                          bias, nullptr, o, ohow);
    double mu = 0.0;
    for (Index j = 0; j < f; ++j) mu += o[j];
    mu /= static_cast<double>(f);
    double var = 0.0;
    for (Index j = 0; j < f; ++j) {
      const double d = o[j] - mu;
      var = std::fma(d, d, var);
    }
    var /= static_cast<double>(f);
    const float is = 1.0f / std::sqrt(static_cast<float>(var) + 1e-5f);
    for (Index j = 0; j < f; ++j) {
      const float xh = (o[j] - static_cast<float>(mu)) * is;
      o[j] = std::max(0.0f, std::fmaf(xh, ln_g[j], ln_b[j]));
    }
  }
}

/// out[i, j] = bias[j], then fmaf(x[i, l], w[l, j], .) for l ascending.
void ReferenceHead(Index m, Index k, Index n, const float* x, const float* w,
                   const float* bias, float* out) {
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      float acc = bias[j];
      for (Index l = 0; l < k; ++l) {
        acc = std::fmaf(x[i * k + l], w[l * n + j], acc);
      }
      out[i * n + j] = acc;
    }
  }
}

QuantPolicyOutput ReferenceForward(const PolicyNetConfig& cfg,
                                   const QuantizedParams& qp,
                                   const float* states, int batch) {
  const Index b = batch;
  const Index s1 = ConvOut(cfg.grid, 1);
  const Index s2 = ConvOut(s1, 2);
  const Index s3 = ConvOut(s2, 2);
  const StageShape st1{cfg.in_channels, cfg.grid, cfg.conv1_channels, s1, 1};
  const StageShape st2{cfg.conv1_channels, s1, cfg.conv2_channels, s2, 2};
  const StageShape st3{cfg.conv2_channels, s2, cfg.conv3_channels, s3, 2};
  const auto& e = qp.entries;
  std::vector<float> a1(static_cast<size_t>(b * st1.oc * st1.ohow()));
  std::vector<float> a2(static_cast<size_t>(b * st2.oc * st2.ohow()));
  std::vector<float> a3(static_cast<size_t>(b * st3.oc * st3.ohow()));
  ReferenceStage(st1, b, e[0].q, e[1].dense.data(), e[2].dense.data(),
                 e[3].dense.data(), states, a1.data());
  ReferenceStage(st2, b, e[4].q, e[5].dense.data(), e[6].dense.data(),
                 e[7].dense.data(), a1.data(), a2.data());
  ReferenceStage(st3, b, e[8].q, e[9].dense.data(), e[10].dense.data(),
                 e[11].dense.data(), a2.data(), a3.data());

  // Trunk FC on the prepacked int8 panel, then ReLU.
  const Index flat = st3.oc * st3.ohow(), feat = cfg.feature_dim;
  std::vector<int8_t> xq(static_cast<size_t>(b * flat));
  std::vector<float> sx(static_cast<size_t>(b));
  std::vector<float> feature(static_cast<size_t>(b * feat));
  nn::gemm::QuantizeRowsInt8(b, flat, a3.data(), flat, xq.data(), sx.data());
  nn::gemm::Int8GemmPrepacked(b, feat, flat, xq.data(), flat, sx.data(),
                              e[12].q.packed.data(), e[12].q.scales.data(),
                              nullptr, e[13].dense.data(), feature.data(),
                              feat);
  for (float& v : feature) v = std::max(0.0f, v);

  const Index n_move = cfg.num_workers * cfg.num_moves;
  const Index n_charge = cfg.num_workers * 2;
  QuantPolicyOutput out;
  out.move_logits.resize(static_cast<size_t>(b * n_move));
  out.charge_logits.resize(static_cast<size_t>(b * n_charge));
  out.value.resize(static_cast<size_t>(b));
  ReferenceHead(b, feat, n_move, feature.data(), e[14].dense.data(),
                e[15].dense.data(), out.move_logits.data());
  ReferenceHead(b, feat, n_charge, feature.data(), e[16].dense.data(),
                e[17].dense.data(), out.charge_logits.data());
  ReferenceHead(b, feat, 1, feature.data(), e[18].dense.data(),
                e[19].dense.data(), out.value.data());
  return out;
}

// ---------------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------------

struct NamedNet {
  std::string name;
  PolicyNetConfig cfg;
};

/// Every net shape the repository serves, plus an odd one. Conv output
/// pixels per stage in parentheses.
std::vector<NamedNet> Nets() {
  std::vector<NamedNet> nets;
  PolicyNetConfig paper;  // grid 20, conv 8/16/16, FC 256 (400/100/25)
  nets.push_back({"paper", paper});
  PolicyNetConfig cli;  // the CLI's net (144/36/9)
  cli.grid = 12;
  cli.conv1_channels = 4;
  cli.conv2_channels = 6;
  cli.conv3_channels = 6;
  cli.feature_dim = 64;
  nets.push_back({"cli", cli});
  PolicyNetConfig tiny = cli;  // serve_quant_test's net (64/16/4)
  tiny.grid = 8;
  tiny.conv2_channels = 4;
  tiny.conv3_channels = 4;
  tiny.feature_dim = 32;
  nets.push_back({"tiny", tiny});
  PolicyNetConfig odd;  // (49/16/4), channel counts off every lane width
  odd.grid = 7;
  odd.conv1_channels = 5;
  odd.conv2_channels = 9;
  odd.conv3_channels = 3;
  odd.feature_dim = 24;
  odd.num_workers = 3;
  odd.num_moves = 5;
  nets.push_back({"grid7", odd});
  return nets;
}

enum class InputKind { kSparse, kSigned, kZeroPlanes, kWideRange };

const char* KindName(InputKind k) {
  switch (k) {
    case InputKind::kSparse:
      return "sparse";
    case InputKind::kSigned:
      return "signed";
    case InputKind::kZeroPlanes:
      return "zero-planes";
    case InputKind::kWideRange:
      return "wide-range";
  }
  return "?";
}

/// `batch` stacked states of one kind:
///  * sparse — mostly +0 and -0, the rest in (0, 1), like encoded states;
///  * signed — values in (-2, 2) with some exact ±0;
///  * zero-planes — one all-zero plane per image and every third image all
///    zero (+0 or -0), so whole patch columns are zero and take scale 1.0;
///  * wide-range — magnitudes from 1e-30 to 1e4, so each column's codes
///    reach ±127 while most of its entries round to small codes or zero.
std::vector<float> MakeStates(const PolicyNetConfig& cfg, int batch,
                              InputKind kind, uint64_t seed) {
  Rng rng(seed);
  const Index plane = static_cast<Index>(cfg.grid) * cfg.grid;
  const Index img = cfg.in_channels * plane;
  std::vector<float> x(static_cast<size_t>(batch * img));
  for (float& v : x) {
    const double u = rng.Uniform(0.0, 1.0);
    const float sign = rng.Uniform(0.0, 1.0) < 0.5 ? -1.0f : 1.0f;
    switch (kind) {
      case InputKind::kSparse:
        v = u < 0.4 ? 0.0f
                    : (u < 0.8 ? -0.0f
                               : static_cast<float>(rng.Uniform(0.0, 1.0)));
        break;
      case InputKind::kSigned:
        v = u < 0.1 ? sign * 0.0f
                    : static_cast<float>(rng.Uniform(-2.0, 2.0));
        break;
      case InputKind::kZeroPlanes:
        v = u < 0.3 ? sign * 0.0f
                    : static_cast<float>(rng.Uniform(-1.0, 1.0));
        break;
      case InputKind::kWideRange:
        v = sign * static_cast<float>(std::pow(10.0, rng.Uniform(-30.0, 4.0)));
        break;
    }
  }
  if (kind == InputKind::kZeroPlanes) {
    for (int i = 0; i < batch; ++i) {
      float* image = x.data() + i * img;
      const Index zero_plane = i % cfg.in_channels;
      std::fill(image + zero_plane * plane, image + (zero_plane + 1) * plane,
                i % 2 == 0 ? 0.0f : -0.0f);
      if (i % 3 == 1) std::fill(image, image + img, -0.0f);
    }
  }
  return x;
}

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(QuantForwardSpecTest, MatchesReferenceLoweringBitwise) {
  const InputKind kKinds[] = {InputKind::kSparse, InputKind::kSigned,
                              InputKind::kZeroPlanes, InputKind::kWideRange};
  for (const int pool : {1, 4}) {
    runtime::SetGlobalPoolThreads(pool);
    for (const NamedNet& net : Nets()) {
      Rng rng(7);
      const PolicyNet policy(net.cfg, rng);
      const QuantizedParams qp = QuantizePolicyParams(policy.Parameters());
      for (const int batch : {1, 3, 7, 8, 9, 11, 16, 17}) {
        for (const InputKind kind : kKinds) {
          const std::vector<float> states =
              MakeStates(net.cfg, batch, kind,
                         1000 * static_cast<uint64_t>(batch) +
                             static_cast<uint64_t>(kind));
          const QuantPolicyOutput got =
              QuantPolicyForward(net.cfg, qp, states.data(), batch);
          const QuantPolicyOutput want =
              ReferenceForward(net.cfg, qp, states.data(), batch);
          const std::string where = net.name + " batch=" +
                                    std::to_string(batch) + " " +
                                    KindName(kind) +
                                    " pool=" + std::to_string(pool);
          EXPECT_TRUE(SameBytes(got.move_logits, want.move_logits)) << where;
          EXPECT_TRUE(SameBytes(got.charge_logits, want.charge_logits))
              << where;
          EXPECT_TRUE(SameBytes(got.value, want.value)) << where;
        }
      }
    }
  }
  runtime::SetGlobalPoolThreads(1);
}

TEST(QuantForwardDeathTest, RejectsBundleBuiltForAnotherGrid) {
  // A grid-19 net flattens to 16*5*5 = 400 features like a grid-20 one, so
  // its conv and FC weights fit the grid-20 config; its LayerNorm
  // parameters (8*19*19 = 2888 floats) do not, and reading them as 3200
  // would run past their end.
  PolicyNetConfig grid20;
  PolicyNetConfig grid19 = grid20;
  grid19.grid = 19;
  Rng rng(3);
  const PolicyNet net19(grid19, rng);
  const QuantizedParams qp = QuantizePolicyParams(net19.Parameters());
  const std::vector<float> states =
      MakeStates(grid20, 1, InputKind::kSigned, 5);
  // Entry 2 or 3 (LN1's gamma or beta), whichever is checked first.
  EXPECT_DEATH(QuantPolicyForward(grid20, qp, states.data(), 1),
               "2888 +vs +3200 \\) floats in bundle entry [23]");
}

}  // namespace
}  // namespace cews::agents
