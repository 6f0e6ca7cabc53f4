// cews::agents — the int8 inference executor for the policy architecture.
//
// QuantPolicyForward replays PolicyNet::ForwardImpl's exact layer sequence
// (conv3x3-LN-ReLU x3 -> flatten -> FC-ReLU -> three linear heads) against
// a publish-time nn::quant::QuantizedParams bundle instead of fp32 tensors.
// The three convs and the trunk FC run on the packed int8 kernels
// (nn/gemm_int8.h) with per-output-channel weight scales, dynamic
// activation scales (per output pixel for the convs, per row for the FC),
// int32 accumulation and fp32 dequantize + bias on output. Each conv reads
// its patches from a padded copy of the image straight into the int8 panel;
// no fp32 im2col matrix is built. LayerNorm, ReLU and the three heads stay
// fp32: the LayerNorms anchor the activation statistics the next
// quantization step depends on, and the heads are a sliver of the forward
// cost that owns the argmax decision.
//
// Order contract. Every code, scale, int32 sum and output comes from one
// fixed sequence, whatever the build or the pool size:
//  * patch values: column p of tap l is xpad[taps[l] + pixels[p]] in the
//    conv's zero-padded image (nn/conv.h); padding taps are zeros;
//  * per-pixel scale: amax/127 over the pixel's column, or 1.0 for an
//    all-zero column, with inverse 127/amax (0 for an all-zero column);
//  * codes: clamp(rtne(x * inverse), -127, 127), QuantizePackColsInt8's
//    rule;
//  * conv output: fma(sw[oc] * s[p], (float)acc, 0 + bias[oc]) with acc the
//    exact int32 dot of the codes (Int8DotRows);
//  * LayerNorm + ReLU of each image: the forward contract of
//    nn/layer_norm.h;
//  * trunk FC: per-row codes (QuantizeRowsInt8) against the prepacked
//    panel (Int8GemmPrepacked), then ReLU;
//  * heads: each output starts from its bias and takes one
//    fmaf(x[l], w[l][j], acc) per l ascending.
// This is the sequence of the im2col lowering the forward ran before, whose
// native build GCC contracted into the same fmas, so native logits are the
// bytes that lowering gave, and a portable build gives the native bytes
// (tests/agents_quant_forward_test.cc pins both against that lowering).
// The contract covers finite states. A NaN can change a pixel's scale (the
// absmax passes take their maxima in different orders), so NaN states are
// outside it; serve::PolicyServer rejects a state holding a NaN or an
// infinity before it reaches a forward.
//
// The bundle is immutable and shared: unlike the fp32 serve path (which
// copies a snapshot into a private per-worker net on epoch change), int8
// workers read the snapshot's QuantizedParams in place — hot-swap costs one
// shared_ptr pin, and a swap can never expose torn weights because a batch
// is served entirely by the bundle captured at dequeue time.
//
// Correctness is gated behaviorally, not bitwise: ActionAgreement* compares
// the quantized policy's argmax decisions (per worker, move and charge head)
// against the fp32 net's over a state set, and serving requires the match
// rate to clear a configured threshold (>= 99% over the scenario suite;
// tests/serve_quant_test.cc, the deploy loop's eval gate, and the
// `cews serve --precision int8` startup check all enforce it).
#ifndef CEWS_AGENTS_QUANT_POLICY_H_
#define CEWS_AGENTS_QUANT_POLICY_H_

#include <cstdint>
#include <vector>

#include "agents/policy_net.h"
#include "nn/quant.h"

namespace cews::agents {

/// One quantized forward pass worth of outputs (plain buffers — the int8
/// path has no autograd tensors to hand back).
struct QuantPolicyOutput {
  std::vector<float> move_logits;    ///< [batch * num_workers * num_moves].
  std::vector<float> charge_logits;  ///< [batch * num_workers * 2].
  std::vector<float> value;          ///< [batch].
};

/// Builds the policy's serving bundle: the serve-hot GEMM weights — the
/// three conv kernels and the trunk FC, which dominate forward cost — are
/// quantized per output channel; the head weights (move/charge/value) stay
/// dense fp32. The heads are tiny (n = W*moves, W*2, 1: a few percent of
/// forward FLOPs) and sit directly on the argmax decision, so quantizing
/// them buys nothing and costs agreement. `params` must be in
/// PolicyNet::Parameters() order (20 tensors, CHECKed).
nn::quant::QuantizedParams QuantizePolicyParams(
    const std::vector<nn::Tensor>& params);

/// Runs the int8 forward over `batch` stacked states (batch * in_channels *
/// grid * grid floats, the SamplePolicyBatch layout). `qp` must have been
/// built by QuantizePolicyParams from a parameter list in
/// PolicyNet::Parameters() order for this architecture: every entry's kind
/// and size are CHECKed against `config`. Deterministic at any thread
/// count: integer accumulation plus per-image fp epilogues, both
/// partition-invariant.
QuantPolicyOutput QuantPolicyForward(const PolicyNetConfig& config,
                                     const nn::quant::QuantizedParams& qp,
                                     const float* states, int batch);

/// Action-agreement tally between the fp32 net and the quantized bundle.
/// Every (instance, worker) contributes two decisions: the move-head argmax
/// and the charge-head argmax.
struct AgreementStats {
  int64_t decisions = 0;
  int64_t matched = 0;
  double rate() const {
    return decisions == 0 ? 1.0
                          : static_cast<double>(matched) /
                                static_cast<double>(decisions);
  }
};

/// Compares argmax decisions over `batch` stacked states. `net` provides
/// the fp32 reference; `qp` must be a bundle of the SAME parameters (the
/// caller typically quantized net.Parameters() or the published snapshot
/// the net was copied from).
AgreementStats ActionAgreementOnStates(const PolicyNet& net,
                                       const nn::quant::QuantizedParams& qp,
                                       const std::vector<float>& states,
                                       int batch);

}  // namespace cews::agents

#endif  // CEWS_AGENTS_QUANT_POLICY_H_
