// cews::nn::conv — the direct convolution kernels behind nn::Conv2d.
//
// Each kernel reads a zero-padded copy of every input image through a
// tap-offset table (tap l = (ic*kh + ky)*kw + kx sits at offset taps[l] from
// an output pixel's corner), so padding is ordinary zeros and no kernel
// branches on borders. The kernels vectorise across channels — output
// channels for y and dW, input channels for dX — with lane types chosen from
// the build's ISA macros (conv.cc); a channel count that is not a multiple
// of the lane width is padded up to it, and the extra lanes are discarded.
//
// Order contract. Every output element is computed by one fixed float
// operation sequence, whatever the lane type, blocking or thread count:
//  * y[n,o,q]    = bias[o] (or +0), then one fmaf per tap in (ic, ky, kx)
//                  order: acc = fmaf(w[o,ic,ky,kx], xpad[tap of q], acc).
//  * dW[o,l]    += one fresh dot per image — +0, then fmaf(dY[n,o,q],
//                  xpad[tap l of q], dot) over pixels q ascending — added to
//                  dW once per image, images in order.
//  * db[o]      += one per-image pixel sum (+0, then + dY[n,o,q] over q
//                  ascending), images in order.
//  * dX[n,c,i]  += one value per tap (ky, kx) that reads input pixel i, in
//                  (ky, kx) order, each a fresh fmaf chain over output
//                  channels o ascending of w[o,c,ky,kx] * dY[n,o,q].
// This is exactly the sequence of the im2col + GEMM lowering Conv2d used
// before (tests/nn_conv_test.cc pins it against a plain reference), so
// training checkpoints are bit-identical to that lowering's.
// With a row map (nn/ops.h "RowMap") the batch holds the distinct images
// and "images in order" means the logical images: each distinct image's
// dot and pixel sum is computed once and added once per logical image that
// reads it, in logical order. y and dX are per image and need no map.
#ifndef CEWS_NN_CONV_H_
#define CEWS_NN_CONV_H_

#include <vector>

#include "nn/tensor.h"

namespace cews::nn::conv {

/// Geometry of one Conv2d call, the padded-input layout its kernels read,
/// and the sizes of their scratch (floats). All scratch is caller-owned
/// (workspace-backed in nn::Conv2d).
struct Plan {
  /// `rows` (optional) maps logical images to the n distinct ones, numbered
  /// by first occurrence (nn/ops.h "RowMap"); none means the identity.
  Plan(Index n, Index c, Index h, Index w, Index oc, Index kh, Index kw,
       int stride, int padding, const std::vector<Index>* rows = nullptr);

  Index n, c, h, w;   // input  [N, C, H, W]
  Index oc, kh, kw;   // weight [OC, C, KH, KW]
  int stride, padding;
  Index oh, ow;       // output spatial dims
  Index hp, wp;       // zero-padded input dims
  Index ocp;          // oc rounded up to its lane width (y, dW, db lanes)
  Index cp;           // c rounded up to its lane width (dX lanes)
  /// taps[l]: offset of tap l = (ic*kh + ky)*kw + kx from an output
  /// pixel's corner inside a padded image.
  std::vector<Index> taps;
  /// pixels[q]: offset of output pixel q's corner (its tap (0, 0, 0))
  /// inside a padded image.
  std::vector<Index> pixels;
  /// rows[i]: the distinct image logical image i reads.
  std::vector<Index> rows;
  /// keep[u]: the slot in which WeightGrad keeps distinct image u's dW dots
  /// for its later logical images, or -1 when u is read once.
  std::vector<Index> keep;
  /// Number of kept-dot slots.
  Index kept = 0;

  Index ck2() const { return c * kh * kw; }
  Index ohow() const { return oh * ow; }

  /// The zero-padded batch Forward writes and WeightGrad reads.
  Index PaddedFloats() const { return n * c * hp * wp; }
  /// Forward's transposed weights plus bias row.
  Index ForwardScratchFloats() const { return (ck2() + 1) * ocp; }
  /// WeightGrad's transposed dY, per-image bias sums and kept dots.
  Index WeightGradScratchFloats() const {
    return n * (ohow() + 1) * ocp + kept * oc * ck2();
  }
  /// InputGrad's transposed weights plus channel-minor padded dX.
  Index InputGradScratchFloats() const {
    return kh * kw * oc * cp + n * hp * wp * cp;
  }
};

/// y [N, OC, OH, OW] = conv(x, w) + bias (bias may be null). Writes the
/// padded batch into `xpad` (PaddedFloats) and every element of y.
void Forward(const Plan& p, const float* x, const float* w, const float* bias,
             float* xpad, float* scratch, float* y);

/// dw += dW and db += db (either may be null) from the padded batch Forward
/// wrote and the output gradient dy, over the plan's logical images.
void WeightGrad(const Plan& p, const float* xpad, const float* dy, float* dw,
                float* db, float* scratch);

/// dx += dX from the weights and the output gradient dy.
void InputGrad(const Plan& p, const float* w, const float* dy, float* dx,
               float* scratch);

}  // namespace cews::nn::conv

#endif  // CEWS_NN_CONV_H_
