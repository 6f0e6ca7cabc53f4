#include "agents/quant_policy.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace cews::agents {

namespace {

using nn::Index;
using nn::ScopedVec;
using nn::quant::QuantizedParams;
using nn::quant::QuantizedTensor;
namespace gemm = nn::gemm;

/// Output side length of a 3x3 conv with the given stride and padding 1
/// (mirrors cnn_trunk.cc).
Index ConvOut(Index in, int stride) { return (in + 2 * 1 - 3) / stride + 1; }

/// LayerNorm epsilon of nn::LayerNormRelu (the LayerNormReluOp default).
constexpr float kLnEps = 1e-5f;

/// Geometry of one conv stage of the trunk (3x3, padding 1).
struct StageShape {
  Index c, h;      // input [c, h, h]
  Index oc, oh;    // output [oc, oh, oh]
  int stride;
  Index ck2() const { return c * 3 * 3; }
  Index ohow() const { return oh * oh; }
};

/// Unfolds one [c, h, h] image into cols [ck2, ohow] — the exact Im2Col of
/// nn/ops.cc (anonymous namespace there, so replicated), specialized to the
/// trunk's square 3x3 / padding-1 convs. Padding taps become zeros.
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
          if (iy < 0 || iy >= s.h) {
            std::fill(dst, dst + s.oh, 0.0f);
            continue;
          }
          const float* src = plane + iy * s.h;
          for (Index x = 0; x < s.oh; ++x) {
            const Index ixp = x * s.stride - 1 + kx;
            dst[x] = (ixp < 0 || ixp >= s.h) ? 0.0f : src[ixp];
          }
        }
      }
    }
  }
}

/// One conv-LN-ReLU block over the whole batch, int8 GEMM per image:
/// im2col -> per-output-pixel activation quantize -> pack -> Int8DotRows
/// with the quantized conv weight on the A side, then fp32 LayerNorm over
/// the image's oc*oh*oh features fused with ReLU: the forward of the
/// nn/layer_norm.h order contract (double mean/var), except that its
/// multiply-adds are left to the compiler's contraction here rather than
/// pinned. Images are independent, so parallelizing over them is
/// partition-invariant; the per-image work is bitwise-fixed.
void ConvLnReluStage(const StageShape& s, Index batch,
                     const QuantizedTensor& wq, const float* bias,
                     const float* ln_g, const float* ln_b, const float* in,
                     float* out) {
  CEWS_CHECK(wq.channels == s.oc && wq.per_channel == s.ck2());
  const Index ck2 = s.ck2();
  const Index ohow = s.ohow();
  const Index in_img = s.c * s.h * s.h;
  const Index out_img = s.oc * ohow;
  const Index f = out_img;  // LayerNorm feature width.
  gemm::ParallelKernel(batch, 2 * s.oc * ck2 * ohow, [&](Index n0, Index n1) {
    // Per-thread scratch: the Workspace arena is thread_local, so each
    // worker's buffers are private and recycled across its images.
    ScopedVec cols(ck2 * ohow);
    ScopedVec col_scales(ohow);
    nn::AlignedScopedBytes panel(gemm::Int8PanelBytes(ck2, ohow));
    for (Index img = n0; img < n1; ++img) {
      Im2Col3x3(s, in + img * in_img, cols.data());
      gemm::QuantizePackColsInt8(ck2, ohow, cols.data(), ohow, panel.data(),
                                 col_scales.data());
      float* o = out + img * out_img;
      gemm::Int8DotRows(0, s.oc, ohow, ck2, wq.rows.data(), ck2,
                        wq.scales.data(), panel.data(), col_scales.data(),
                        /*bias_row=*/bias, /*bias_col=*/nullptr, o, ohow);
      // Fused LayerNorm + ReLU over this image's flattened activation.
      double mu = 0.0;
      for (Index j = 0; j < f; ++j) mu += o[j];
      mu /= static_cast<double>(f);
      double var = 0.0;
      for (Index j = 0; j < f; ++j) {
        const double d = o[j] - mu;
        var += d * d;
      }
      var /= static_cast<double>(f);
      const float is = 1.0f / std::sqrt(static_cast<float>(var) + kLnEps);
      for (Index j = 0; j < f; ++j) {
        const float xh = (o[j] - static_cast<float>(mu)) * is;
        o[j] = std::max(0.0f, xh * ln_g[j] + ln_b[j]);
      }
    }
  });
}

/// xW + b through the pre-packed int8 panel: quantize activation rows, run
/// the prepacked kernel with the layer bias on the column side.
void QuantLinear(Index m, Index k, Index n, const float* x,
                 const QuantizedTensor& wq, const float* bias, float* out) {
  CEWS_CHECK(wq.channels == n && wq.per_channel == k);
  CEWS_CHECK(!wq.packed.empty());
  nn::AlignedScopedBytes xq(m * k);
  ScopedVec sx(m);
  gemm::QuantizeRowsInt8(m, k, x, k, xq.data(), sx.data());
  gemm::Int8GemmPrepacked(m, n, k, xq.data(), k, sx.data(), wq.packed.data(),
                          wq.scales.data(), /*bias_row=*/nullptr,
                          /*bias_col=*/bias, out, n);
}

/// Plain fp32 xW + b for the heads: tiny n, sequential accumulation —
/// deterministic and exact w.r.t. the stored dense weights.
void Fp32Linear(Index m, Index k, Index n, const float* x, const float* w,
                const float* bias, float* out) {
  for (Index i = 0; i < m; ++i) {
    const float* row = x + i * k;
    float* orow = out + i * n;
    for (Index j = 0; j < n; ++j) orow[j] = bias[j];
    for (Index l = 0; l < k; ++l) {
      const float xv = row[l];
      const float* wrow = w + l * n;
      for (Index j = 0; j < n; ++j) orow[j] += xv * wrow[j];
    }
  }
}

/// Index of the first maximum (SampleFromLogits' deterministic rule).
int Argmax(const float* v, int n) {
  int best = 0;
  float mx = v[0];
  for (int i = 1; i < n; ++i) {
    if (v[i] > mx) {
      mx = v[i];
      best = i;
    }
  }
  return best;
}

}  // namespace

nn::quant::QuantizedParams QuantizePolicyParams(
    const std::vector<nn::Tensor>& params) {
  CEWS_CHECK_EQ(params.size(), 20u);
  // Quantize exactly the serve-hot GEMM weights: conv1/conv2/conv3 kernels
  // and the trunk FC. Heads (indices 14, 16, 18), biases and LN params stay
  // dense fp32.
  std::vector<uint8_t> flags(params.size(), 0);
  flags[0] = flags[4] = flags[8] = flags[12] = 1;
  return nn::quant::QuantizeParams(params, &flags);
}

QuantPolicyOutput QuantPolicyForward(const PolicyNetConfig& config,
                                     const QuantizedParams& qp,
                                     const float* states, int batch) {
  CEWS_CHECK_GT(batch, 0);
  CEWS_CHECK_EQ(qp.entries.size(), 20u);

  const Index g = config.grid;
  const Index s1 = ConvOut(g, 1);
  const Index s2 = ConvOut(s1, 2);
  const Index s3 = ConvOut(s2, 2);
  const StageShape stage1{config.in_channels, g, config.conv1_channels, s1, 1};
  const StageShape stage2{config.conv1_channels, s1, config.conv2_channels,
                          s2, 2};
  const StageShape stage3{config.conv2_channels, s2, config.conv3_channels,
                          s3, 2};
  const Index flat = config.conv3_channels * s3 * s3;
  const Index feat = config.feature_dim;
  const Index n_move =
      static_cast<Index>(config.num_workers) * config.num_moves;
  const Index n_charge = static_cast<Index>(config.num_workers) * 2;

  // Parameter bundle layout = PolicyNet::Parameters() order:
  // trunk (conv1 w/b, ln1 g/b, conv2 w/b, ln2 g/b, conv3 w/b, ln3 g/b,
  // fc w/b) then move, charge, value head w/b pairs.
  auto quantized = [&qp](size_t i) -> const QuantizedTensor& {
    CEWS_CHECK(qp.entries[i].quantized);
    return qp.entries[i].q;
  };
  auto dense = [&qp](size_t i) -> const float* {
    CEWS_CHECK(!qp.entries[i].quantized);
    return qp.entries[i].dense.data();
  };

  const Index b = batch;
  ScopedVec act1(b * stage1.oc * stage1.ohow());
  ScopedVec act2(b * stage2.oc * stage2.ohow());
  ScopedVec act3(b * stage3.oc * stage3.ohow());
  ConvLnReluStage(stage1, b, quantized(0), dense(1), dense(2), dense(3),
                  states, act1.data());
  ConvLnReluStage(stage2, b, quantized(4), dense(5), dense(6), dense(7),
                  act1.data(), act2.data());
  ConvLnReluStage(stage3, b, quantized(8), dense(9), dense(10), dense(11),
                  act2.data(), act3.data());

  // Trunk FC + ReLU. act3 is already the flattened [b, flat] matrix.
  ScopedVec feature(b * feat);
  QuantLinear(b, flat, feat, act3.data(), quantized(12), dense(13),
              feature.data());
  for (Index i = 0; i < b * feat; ++i) {
    feature.data()[i] = std::max(0.0f, feature.data()[i]);
  }

  // Heads run fp32 on their dense weights (see QuantizePolicyParams): they
  // are a sliver of the forward cost and own the argmax decision, so the
  // only int8 error reaching the logits is the trunk's feature perturbation.
  QuantPolicyOutput out;
  out.move_logits.resize(static_cast<size_t>(b * n_move));
  out.charge_logits.resize(static_cast<size_t>(b * n_charge));
  out.value.resize(static_cast<size_t>(b));
  Fp32Linear(b, feat, n_move, feature.data(), dense(14), dense(15),
             out.move_logits.data());
  Fp32Linear(b, feat, n_charge, feature.data(), dense(16), dense(17),
             out.charge_logits.data());
  Fp32Linear(b, feat, 1, feature.data(), dense(18), dense(19),
             out.value.data());
  return out;
}

AgreementStats ActionAgreementOnStates(const PolicyNet& net,
                                       const QuantizedParams& qp,
                                       const std::vector<float>& states,
                                       int batch) {
  const PolicyNetConfig& cfg = net.config();
  CEWS_CHECK_GT(batch, 0);
  CEWS_CHECK_EQ(static_cast<int>(states.size()),
                batch * cfg.in_channels * cfg.grid * cfg.grid);

  // fp32 reference logits, copied out before anything else runs (graph-mode
  // outputs are invalidated by the net's next no-grad forward).
  std::vector<float> ref_move, ref_charge;
  {
    nn::NoGradGuard no_grad;
    const nn::Tensor x = nn::Tensor::FromData(
        {batch, cfg.in_channels, cfg.grid, cfg.grid}, states);
    const PolicyOutput out = net.Forward(x);
    ref_move.assign(out.move_logits.data(),
                    out.move_logits.data() + out.move_logits.numel());
    ref_charge.assign(out.charge_logits.data(),
                      out.charge_logits.data() + out.charge_logits.numel());
  }

  const QuantPolicyOutput q =
      QuantPolicyForward(cfg, qp, states.data(), batch);

  AgreementStats stats;
  for (int i = 0; i < batch; ++i) {
    for (int w = 0; w < cfg.num_workers; ++w) {
      const int moff = (i * cfg.num_workers + w) * cfg.num_moves;
      const int coff = (i * cfg.num_workers + w) * 2;
      stats.decisions += 2;
      if (Argmax(ref_move.data() + moff, cfg.num_moves) ==
          Argmax(q.move_logits.data() + moff, cfg.num_moves)) {
        ++stats.matched;
      }
      if (Argmax(ref_charge.data() + coff, 2) ==
          Argmax(q.charge_logits.data() + coff, 2)) {
        ++stats.matched;
      }
    }
  }
  return stats;
}

}  // namespace cews::agents
