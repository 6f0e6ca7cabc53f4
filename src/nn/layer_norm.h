// cews::nn::layer_norm — the fused LayerNorm + ReLU kernels behind
// nn::LayerNormReluOp.
//
// Each row of x [n, f] is normalized over its f features, scaled and
// shifted per feature, and clamped at zero. The row reductions (mean and
// variance forward, the two gradient sums backward) are serial per row, so
// the kernels put rows in lanes instead: with AVX-512 built in, 8 rows ride
// in one double vector and are loaded through 8x8 transposes; other builds
// run the same sequence one row at a time, giving the same bytes. The
// elementwise steps and the gamma/beta gradients vectorise across features.
//
// Order contract. Every value comes from one fixed float operation sequence,
// whatever the build or the row's position in its group:
//  * forward, per row:
//      mu  = +0.0, then mu += (double)x[j] for j ascending, then mu /= f;
//      var = +0.0, then var = fma(d, d, var) with d = (double)x[j] - mu,
//            j ascending, then var /= f;
//      is  = 1.0f / sqrtf((float)var + eps);
//      xh  = (x[j] - (float)mu) * is      (a float sub, then a float mul);
//      y   = fmaf(xh, gamma[j], beta[j]);
//      out = y > 0 ? y : +0.
//  * backward, with dy the gradient of out:
//      g   = 0.0f + dy * (out > 0 ? 1.0f : 0.0f)   (ReLU's backward onto a
//            fresh gradient; the multiply keeps ±0 and NaN as they were);
//      dgamma[j] = fmaf(g, xh, dgamma[j]) and dbeta[j] += g, rows ascending;
//      gj  = (double)g * (double)gamma[j]           (exact);
//      sg  = +0.0, sg += gj; sgx = +0.0, sgx = fma(gj, (double)xh, sgx),
//            both j ascending; mg = sg / f, mgx = sgx / f;
//      dx[j] += (float)(fma(-(double)xh, mgx, gj - mg) * (double)is).
//    The backward recomputes xh from x and the saved (float)mu and is,
//    which reproduces the forward's bits.
//  * with a row map (nn/ops.h "RowMap"), the n rows are the distinct rows
//    and dx is computed once per distinct row, while the dgamma and dbeta
//    chains above run over the logical rows ascending, each reading the g
//    and xh of the distinct row it maps to.
// This is the sequence the separate LayerNorm and ReLU ops ran before the
// fusion, with each multiply-add the compiler used to contract in the
// native build written out as std::fma/std::fmaf, so native and portable
// builds agree (tests/nn_layer_norm_test.cc pins it against a plain loop
// nest) and training checkpoints are bit-identical to the unfused ops'.
#ifndef CEWS_NN_LAYER_NORM_H_
#define CEWS_NN_LAYER_NORM_H_

#include <vector>

#include "nn/tensor.h"

namespace cews::nn::layer_norm {

/// The epsilon nn::LayerNormReluOp and the int8 policy forward add to the
/// variance (`eps` in the forward contract above).
inline constexpr float kEps = 1e-5f;

/// Per-row statistics Forward writes and Backward reads: (float)mu and is
/// for each of n rows (floats).
inline Index StatsFloats(Index n) { return 2 * n; }

/// Backward's scratch (floats): one row group's g and xh, or with a row map
/// every one of the n distinct rows' g and xh.
Index BackwardScratchFloats(Index n, Index f, bool mapped);

/// out [n, f] = relu(gamma * xhat(x) + beta); writes `stats`
/// (StatsFloats(n)). `out` may be `x` (in place).
void Forward(Index n, Index f, float eps, const float* x, const float* gamma,
             const float* beta, float* stats, float* out);

/// dx += dX, dgamma += dGamma, dbeta += dBeta (each may be null) from the
/// forward's x, output and statistics and the output gradient dy. `rows`
/// (optional) maps the logical rows to the n distinct ones.
void Backward(Index n, Index f, const float* x, const float* gamma,
              const float* out, const float* dy, const float* stats, float* dx,
              float* dgamma, float* dbeta, float* scratch,
              const std::vector<Index>* rows = nullptr);

}  // namespace cews::nn::layer_norm

#endif  // CEWS_NN_LAYER_NORM_H_
