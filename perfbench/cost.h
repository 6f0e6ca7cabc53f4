// Operation counts and bytes moved of the nn probes, computed from tensor
// shapes (not measured): GEMM/convolution multiply-adds count as 2 ops;
// bytes are weights at their stored width plus fp32 activations (and conv
// im2col columns) written once and read once. Elementwise work (bias,
// LayerNorm, ReLU, softmax) is left out of the op count.
#ifndef PERFBENCH_COST_H_
#define PERFBENCH_COST_H_

#include <string>

#include "agents/curiosity.h"
#include "agents/policy_net.h"
#include "bench.h"

namespace perfbench {

struct NnCost {
  double ops = 0.0;
  double bytes = 0.0;
};

/// One PolicyNet forward at `batch` (the paper trunk: 3x3 convs with
/// stride 1, 2, 2 and padding 1, then FC, then the three heads). With
/// `int8_trunk` the conv and FC weights are one byte each (the serving
/// int8 bundle); heads stay fp32.
inline NnCost PolicyForwardCost(const cews::agents::PolicyNetConfig& c,
                                int batch, bool int8_trunk) {
  const double b = batch;
  const int s1 = c.grid;
  const int s2 = (s1 - 1) / 2 + 1;
  const int s3 = (s2 - 1) / 2 + 1;
  struct Layer {
    double k, n, positions;
    bool trunk, conv;
  };
  const int heads = c.num_workers * c.num_moves + c.num_workers * 2 + 1;
  const Layer layers[] = {
      {c.in_channels * 9.0, double(c.conv1_channels), double(s1) * s1, true, true},
      {c.conv1_channels * 9.0, double(c.conv2_channels), double(s2) * s2, true, true},
      {c.conv2_channels * 9.0, double(c.conv3_channels), double(s3) * s3, true, true},
      {double(c.conv3_channels) * s3 * s3, double(c.feature_dim), 1.0, true, false},
      {double(c.feature_dim), double(heads), 1.0, false, false},
  };
  NnCost cost;
  cost.bytes = b * c.in_channels * c.grid * c.grid * 4.0;
  for (const Layer& l : layers) {
    cost.ops += 2.0 * b * l.k * l.n * l.positions;
    cost.bytes += l.k * l.n * (l.trunk && int8_trunk ? 1.0 : 4.0) + l.n * 4.0;
    cost.bytes += 2.0 * b * l.n * l.positions * 4.0;
    if (l.conv) cost.bytes += 2.0 * b * l.k * l.positions * 4.0;
  }
  return cost;
}

/// Parameter bytes of the policy net (fp32).
inline double PolicyParamBytes(const cews::agents::PolicyNetConfig& c) {
  const NnCost one = PolicyForwardCost(c, 0, false);
  return one.bytes;
}

/// One training update (forward + backward for inputs and weights + Adam)
/// of the policy net on a `batch` minibatch: 3x the forward ops; bytes are
/// 3x the forward traffic plus Adam's read of params/grads/moments and
/// write of params/moments.
inline NnCost PolicyUpdateCost(const cews::agents::PolicyNetConfig& c,
                               int batch) {
  const NnCost fwd = PolicyForwardCost(c, batch, false);
  NnCost cost;
  cost.ops = 3.0 * fwd.ops;
  cost.bytes = 3.0 * fwd.bytes + 7.0 * PolicyParamBytes(c);
  return cost;
}

/// One spatial-curiosity update (shared forward-model MLP
/// [embed + moves, hidden, embed]) on `batch` samples.
inline NnCost CuriosityUpdateCost(const cews::agents::CuriosityConfig& c,
                                  int batch) {
  const double in = c.embed_dim + c.num_moves;
  const double h = c.hidden;
  const double out = c.embed_dim;
  const double b = batch;
  const double params = in * h + h + h * out + out;
  NnCost cost;
  cost.ops = 3.0 * 2.0 * b * (in * h + h * out);
  cost.bytes = 3.0 * (params * 4.0 + 2.0 * b * (in + h + out) * 4.0) +
               7.0 * params * 4.0;
  return cost;
}

/// "computed: ... per call; achieved ..." for a probe's median call time.
inline std::string CostNote(const NnCost& cost, double per_call_ms) {
  const double rate =
      per_call_ms > 0.0 ? cost.ops / (per_call_ms * 1e-3) * 1e-9 : 0.0;
  return Format("computed: %.3f Mop/call, %.3f MB/call; achieved %.2f Gop/s",
                cost.ops * 1e-6, cost.bytes * 1e-6, rate);
}

}  // namespace perfbench

#endif  // PERFBENCH_COST_H_
