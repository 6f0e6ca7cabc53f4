#include "agents/quant_policy.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "agents/cnn_trunk.h"
#include "agents/eval.h"
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
    nn::layer_norm::Forward(n1 - n0, f, nn::layer_norm::kEps, out + n0 * f,
                            ln_g, ln_b, stats.data(), out + n0 * f);
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

/// Reads a bundle front to back in PolicyNet::Parameters() order, CHECKing
/// each entry's kind, and each dense entry's size, as it is taken (a
/// quantized entry's shape is checked where it is used).
struct BundleCursor {
  const QuantizedParams::Entry& Next(bool quantized) {
    CEWS_CHECK_LT(next, qp.entries.size()) << "bundle entries";
    CEWS_CHECK_EQ(qp.entries[next].quantized, quantized)
        << "quantized bundle entry" << next;
    return qp.entries[next++];
  }
  const QuantizedTensor& Quantized() { return Next(true).q; }
  const float* Dense(Index size) {
    const std::vector<float>& dense = Next(false).dense;
    CEWS_CHECK_EQ(static_cast<Index>(dense.size()), size)
        << "floats in bundle entry" << next - 1;
    return dense.data();
  }

  const QuantizedParams& qp;
  size_t next = 0;
};

/// The fp32 net's and the bundle's argmax decisions on `batch` stacked
/// states, tallied per worker and head into `stats`; returns the fp32 net's.
std::vector<PolicyDecision> CompareDecisions(const PolicyNet& net,
                                             const QuantizedParams& qp,
                                             const std::vector<float>& states,
                                             int batch, AgreementStats& stats) {
  const PolicyNetConfig& cfg = net.config();
  const std::vector<uint8_t> argmax(static_cast<size_t>(batch), 1);
  Rng unused(0);  // argmax decisions draw nothing
  std::vector<PolicyDecision> ref =
      DecidePolicyBatch(net, states, batch, unused, argmax.data());
  const QuantPolicyOutput q = QuantPolicyForward(cfg, qp, states.data(), batch);
  const std::vector<PolicyDecision> got =
      DecideFromLogits(cfg, q.move_logits.data(), q.charge_logits.data(),
                       q.value.data(), batch, unused, argmax.data());
  stats.states += batch;
  for (int i = 0; i < batch; ++i) {
    const ActResult& a = ref[static_cast<size_t>(i)].act;
    const ActResult& b = got[static_cast<size_t>(i)].act;
    for (int w = 0; w < cfg.num_workers; ++w) {
      stats.decisions += 2;
      stats.matched +=
          (a.moves[w] == b.moves[w]) + (a.charges[w] == b.charges[w]);
    }
  }
  return ref;
}

}  // namespace

nn::quant::QuantizedParams QuantizePolicyParams(
    const std::vector<nn::Tensor>& params) {
  // In PolicyNet::Parameters() order, each trunk stage's conv weight is
  // quantized and its bias and LayerNorm gamma and beta are not; so is the
  // trunk FC's weight and not its bias. The heads after them stay fp32.
  std::vector<uint8_t> quantize;
  for (size_t s = TrunkStages(CnnTrunkConfig{}, 1).size(); s > 0; --s) {
    quantize.insert(quantize.end(), {1, 0, 0, 0});
  }
  quantize.insert(quantize.end(), {1, 0});
  CEWS_CHECK_GT(params.size(), quantize.size()) << "policy parameters";
  quantize.resize(params.size(), 0);
  return nn::quant::QuantizeParams(params, quantize);
}

QuantPolicyOutput QuantPolicyForward(const PolicyNetConfig& config,
                                     const QuantizedParams& qp,
                                     const float* states, int batch) {
  CEWS_CHECK_GT(batch, 0);
  const Index b = batch;
  BundleCursor bundle{qp};

  // The trunk's stages, each quantized conv -> LayerNorm + ReLU, reading
  // the previous stage's output.
  const std::vector<nn::conv::Plan> stages =
      TrunkStages(config.TrunkConfig(), b);
  std::vector<ScopedVec> acts;
  acts.reserve(stages.size());
  const float* in = states;
  for (const nn::conv::Plan& stage : stages) {
    const Index f = stage.oc * stage.ohow();  // LayerNorm feature width
    const QuantizedTensor& w = bundle.Quantized();
    const float* bias = bundle.Dense(stage.oc);
    const float* ln_g = bundle.Dense(f);
    const float* ln_b = bundle.Dense(f);
    float* out = acts.emplace_back(b * f).data();
    ConvLnReluStage(stage, w, bias, ln_g, ln_b, in, out);
    in = out;
  }

  // Trunk FC + ReLU. The last stage's output is already the flattened
  // [b, flat] matrix.
  const Index flat = stages.back().oc * stages.back().ohow();
  const Index feat = config.feature_dim;
  const QuantizedTensor& fc_w = bundle.Quantized();
  ScopedVec feature(b * feat);
  QuantLinear(b, flat, feat, in, fc_w, bundle.Dense(feat), feature.data());
  for (Index i = 0; i < b * feat; ++i) {
    feature.data()[i] = std::max(0.0f, feature.data()[i]);
  }

  // Heads run fp32 on their dense weights (see QuantizePolicyParams): they
  // are a sliver of the forward cost and own the argmax decision, so the
  // only int8 error reaching the logits is the trunk's feature perturbation.
  const auto head = [&](Index n, std::vector<float>& y) {
    y.resize(static_cast<size_t>(b * n));
    const float* w = bundle.Dense(feat * n);
    gemm::LinearRowsF32(b, n, feat, feature.data(), w, bundle.Dense(n),
                        y.data());
  };
  QuantPolicyOutput out;
  head(static_cast<Index>(config.num_workers) * config.num_moves,
       out.move_logits);
  head(static_cast<Index>(config.num_workers) * 2, out.charge_logits);
  head(1, out.value);
  CEWS_CHECK_EQ(bundle.next, qp.entries.size()) << "bundle entries";
  return out;
}

AgreementStats ProbeActionAgreement(const PolicyNet& net,
                                    const QuantizedParams& qp,
                                    const env::StateEncoder& encoder,
                                    env::VecEnv& envs, int steps) {
  AgreementStats stats;
  envs.Reset();
  for (int step = 0; step < steps && !envs.AllDone(); ++step) {
    std::vector<std::vector<env::WorkerAction>> actions;
    for (PolicyDecision& d :
         CompareDecisions(net, qp, encoder.EncodeBatch(envs.EnvPtrs()),
                          envs.size(), stats)) {
      actions.push_back(std::move(d.act.actions));
    }
    envs.Step(actions);
  }
  return stats;
}

}  // namespace cews::agents
