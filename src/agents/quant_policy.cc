#include "agents/quant_policy.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "nn/layer_norm.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace cews::agents {

namespace {

using nn::Index;
using nn::ScopedVec;
using nn::quant::QuantizedParams;
using nn::quant::QuantizedTensor;
namespace gemm = nn::gemm;

/// LayerNorm epsilon of nn::LayerNormRelu (the LayerNormReluOp default).
constexpr float kLnEps = 1e-5f;

/// One conv-LN-ReLU block over the whole batch: per image, the patch panel
/// (gemm_int8.h) -> Int8DotRows with the quantized conv weight on the A
/// side -> the output pixels' columns into `out`; then the fused LayerNorm
/// + ReLU of nn/layer_norm.h over the partition's images in place. Images
/// are independent and the LayerNorm's rows do not depend on their
/// grouping, so partitioning over images is bitwise-invariant.
void ConvLnReluStage(const nn::conv::Plan& plan, const QuantizedTensor& wq,
                     const float* bias, const float* ln_g, const float* ln_b,
                     const float* in, float* out) {
  CEWS_CHECK(wq.channels == plan.oc && wq.per_channel == plan.ck2());
  const gemm::Int8PatchPlan pp(plan);
  const Index in_img = plan.c * plan.h * plan.w;
  const Index f = plan.oc * plan.ohow();  // LayerNorm feature width.
  const Index flops = 2 * plan.oc * pp.k * pp.cols;  // per image
  gemm::ParallelKernel(plan.n, flops, [&](Index n0, Index n1) {
    // Per-partition scratch: the Workspace arena is thread_local, so each
    // worker's buffers are private and recycled across its images.
    ScopedVec scratch(pp.ScratchFloats());
    ScopedVec col_scales(pp.cols);
    ScopedVec dot(plan.oc * pp.cols);
    nn::AlignedScopedBytes panel(gemm::Int8PanelBytes(pp.k, pp.cols));
    for (Index img = n0; img < n1; ++img) {
      gemm::QuantizePackPatchesInt8(pp, in + img * in_img, scratch.data(),
                                    panel.data(), col_scales.data());
      gemm::Int8DotRows(0, plan.oc, pp.cols, pp.k, wq.rows.data(), pp.k,
                        wq.scales.data(), panel.data(), col_scales.data(),
                        /*bias_row=*/bias, /*bias_col=*/nullptr, dot.data(),
                        pp.cols);
      gemm::DropPadColumns(pp, plan.oc, dot.data(), out + img * f);
    }
    ScopedVec stats(nn::layer_norm::StatsFloats(n1 - n0));
    nn::layer_norm::Forward(n1 - n0, f, kLnEps, out + n0 * f, ln_g, ln_b,
                            stats.data(), out + n0 * f);
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

  const Index b = batch;
  // The trunk's three 3x3 convs, padding 1, strides 1/2/2 (cnn_trunk.cc).
  const nn::conv::Plan conv1(b, config.in_channels, config.grid, config.grid,
                             config.conv1_channels, 3, 3, 1, 1);
  const nn::conv::Plan conv2(b, conv1.oc, conv1.oh, conv1.ow,
                             config.conv2_channels, 3, 3, 2, 1);
  const nn::conv::Plan conv3(b, conv2.oc, conv2.oh, conv2.ow,
                             config.conv3_channels, 3, 3, 2, 1);
  const Index f1 = conv1.oc * conv1.ohow();
  const Index f2 = conv2.oc * conv2.ohow();
  const Index flat = conv3.oc * conv3.ohow();
  const Index feat = config.feature_dim;
  const Index n_move =
      static_cast<Index>(config.num_workers) * config.num_moves;
  const Index n_charge = static_cast<Index>(config.num_workers) * 2;

  // Parameter bundle layout = PolicyNet::Parameters() order:
  // trunk (conv1 w/b, ln1 g/b, conv2 w/b, ln2 g/b, conv3 w/b, ln3 g/b,
  // fc w/b) then move, charge, value head w/b pairs. The quantized entries'
  // shapes are checked where they are used; the dense ones here.
  auto quantized = [&qp](size_t i) -> const QuantizedTensor& {
    CEWS_CHECK(qp.entries[i].quantized);
    return qp.entries[i].q;
  };
  auto dense = [&qp](size_t i, Index size) -> const float* {
    CEWS_CHECK(!qp.entries[i].quantized);
    CEWS_CHECK_EQ(static_cast<Index>(qp.entries[i].dense.size()), size)
        << "floats in bundle entry" << i;
    return qp.entries[i].dense.data();
  };

  ScopedVec act1(b * f1);
  ScopedVec act2(b * f2);
  ScopedVec act3(b * flat);
  ConvLnReluStage(conv1, quantized(0), dense(1, conv1.oc), dense(2, f1),
                  dense(3, f1), states, act1.data());
  ConvLnReluStage(conv2, quantized(4), dense(5, conv2.oc), dense(6, f2),
                  dense(7, f2), act1.data(), act2.data());
  ConvLnReluStage(conv3, quantized(8), dense(9, conv3.oc), dense(10, flat),
                  dense(11, flat), act2.data(), act3.data());

  // Trunk FC + ReLU. act3 is already the flattened [b, flat] matrix.
  ScopedVec feature(b * feat);
  QuantLinear(b, flat, feat, act3.data(), quantized(12), dense(13, feat),
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
  gemm::LinearRowsF32(b, n_move, feat, feature.data(),
                      dense(14, feat * n_move), dense(15, n_move),
                      out.move_logits.data());
  gemm::LinearRowsF32(b, n_charge, feat, feature.data(),
                      dense(16, feat * n_charge), dense(17, n_charge),
                      out.charge_logits.data());
  gemm::LinearRowsF32(b, 1, feat, feature.data(), dense(18, feat),
                      dense(19, 1), out.value.data());
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

  // fp32 reference logits.
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
