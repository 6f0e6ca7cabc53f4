// cews::nn::gemm — packed int8 micro-kernels for the serve-hot GEMM shapes.
//
// The fp32 kernels (gemm.h) carry the training path, where every product
// must stay bitwise-identical to the scalar reference. Serving has a
// different contract: weights are frozen at publish time, accuracy is gated
// by an action-agreement harness (quantized vs fp32 argmax, agents/
// quant_policy.h), and per-request cost is what matters. The int8 family
// exploits that freedom:
//
//  * Weights are quantized per output channel (symmetric absmax, quant.h)
//    and packed into panels ONCE at publish — the per-request pack the fp32
//    GemmNN pays on its B operand (k*n floats per call) disappears.
//  * Activations are quantized per row (or per conv patch column) at
//    request time with the same round-to-nearest-even + saturate rule — an
//    O(m*k) pass against the O(m*n*k) product. Conv patches are read
//    straight from a padded copy of the image into the panel
//    (QuantizePackPatchesInt8); no fp32 im2col matrix is built.
//  * The kernel accumulates int8 x int8 products in int32 (exact: with
//    |q| <= 127 a reduction of up to 2^17 terms cannot overflow), then
//    dequantizes on output: C[i,j] = sa[i]*sb[j]*acc + bias. Integer
//    accumulation is associative, so the int8 path is bitwise-deterministic
//    at any thread count by construction — no fmaf pinning needed.
//
// Panel layout follows the fp32 kernels' column tiling with one extra
// twist for the hardware dot instruction: the B operand is packed into
// column tiles of width kNrQ, and within a tile the k dimension is grouped
// into runs of kKuQ = 4 — the tile covering output columns [c0, c0+w)
// starts at offset RoundUp(k,4)*c0 and stores element (l, c0+t) at
// tile[((l/4)*w + (c0+t - c0))*4 + l%4], with the k tail zero-padded. Four
// consecutive-k bytes of one column land contiguously, which is exactly the
// operand shape of AVX512-VNNI's vpdpbusd (u8 x s8 dot of 4-byte groups
// into int32 lanes); the kernel feeds it by offsetting A's codes to u8
// (a XOR 0x80 = a + 128) and subtracting 128 * colsum(B) afterwards — an
// exact integer identity, so determinism is untouched. A full pack is
// Int8PanelBytes(k, n) ~= k*n int8 bytes (4x smaller than fp32 — the
// k=1152 trunk-FC panel drops from 576 KiB to 144 KiB, L2-resident).
// Panels must be kPanelAlignment (64 B) aligned: publish-time packs use
// quant.h's aligned buffers, request-time packs use
// Workspace::AlignedScopedBytes.
#ifndef CEWS_NN_GEMM_INT8_H_
#define CEWS_NN_GEMM_INT8_H_

#include <cstdint>
#include <vector>

#include "nn/conv.h"
#include "nn/tensor.h"

namespace cews::nn::gemm {

/// Column-tile width of the int8 panels: two full cache lines of int8
/// lanes, matching the fp32 kNr so the serve shapes tile identically.
inline constexpr Index kNrQ = 32;

/// Register-tile height in output rows (int32 accumulator block is
/// kMrQ x kNrQ = 512 B, same footprint as the fp32 tile).
inline constexpr Index kMrQ = 4;

/// Depth of one packed dot group: vpdpbusd consumes 4 consecutive-k bytes
/// per column per instruction, so panels interleave (and zero-pad) k in
/// runs of 4.
inline constexpr Index kKuQ = 4;

/// Largest reduction depth the int32 accumulator admits without overflow.
/// The VNNI path accumulates (a+128) * b with a+128 <= 255 and |b| <= 127,
/// so each term is bounded by 255*127; 2^31-1 budget. Still ~58x above the
/// deepest serve shape (trunk FC k=1152); CHECKed by the kernels.
inline constexpr Index kMaxInt8Depth = (Index{1} << 31) / (255 * 127);

/// Bytes of a packed panel for a k x n B operand: k rounds up to the kKuQ
/// grouping (the pad bytes are zeroed by the pack). Allocate panels with
/// this, not k*n.
inline constexpr Index Int8PanelBytes(Index k, Index n) {
  return (k + kKuQ - 1) / kKuQ * kKuQ * n;
}

/// Quantizes each row of X (m x k fp32, row stride ldx) symmetrically to
/// int8: scales[i] = rowmax|x|/127 (1.0 for an all-zero row), xq[i*k + l] =
/// saturate(rtne(x * (127 / rowmax|x|))) in [-127, 127]. Round-to-nearest-
/// even via std::nearbyintf under the default rounding mode. quant.h
/// quantizes each weight channel through this too, so activation and weight
/// grids agree.
void QuantizeRowsInt8(Index m, Index k, const float* x, Index ldx, int8_t* xq,
                      float* scales);

// Reference lowering of a conv's B panel through an fp32 im2col matrix.
// No serving path runs these three; they are plain scalar loops that the
// tests (nn_quant_test, agents_quant_forward_test) hold the patch path and
// the kernels against.

/// Per-column variant for im2col matrices: X is k x n (row stride ldx = n),
/// column j is one output pixel's patch. scales[j] = colmax|x|/127, xq keeps
/// the k x n row-major layout.
void QuantizeColsInt8(Index k, Index n, const float* x, Index ldx, int8_t* xq,
                      float* scales);

/// Packs B (k x n int8, row stride ldb) into the panel layout above
/// (Int8PanelBytes(k, n) bytes). The int8 analogue of the fp32 GEMM pack.
void PackInt8NN(Index k, Index n, const int8_t* b, Index ldb, int8_t* packed);

/// QuantizeColsInt8 + PackInt8NN fused into one pass: quantizes the im2col
/// matrix X (k x n fp32) per column and writes the codes straight into the
/// panel layout, bit-identical to running the two steps separately;
/// `packed` takes Int8PanelBytes(k, n) bytes. QuantizePackPatchesInt8
/// gives its bytes without building X.
void QuantizePackColsInt8(Index k, Index n, const float* x, Index ldx,
                          int8_t* packed, float* scales);

/// The int8 patch panel of one image of a conv::Plan, without an fp32
/// patch matrix. The conv's patch matrix has one row per tap l = (ic*kh +
/// ky)*kw + kx and one column per output pixel p, and column p of tap l is
/// xpad[taps[l] + pixels[p]] in the plan's zero-padded image (conv.h).
/// QuantizePackPatchesInt8 reads those values from a stride-phase copy of
/// the padded image: with stride s, phase (a, b) holds xpad's rows a, a+s,
/// a+2s, ... and columns b, b+s, ..., `pitch` columns to a row. Output
/// pixel (oy, ox) is panel column oy*pitch + ox, and tap l lies `taps[l]`
/// floats past that column in the phase copy, so sixteen consecutive
/// columns of a tap are one contiguous load. The panel has `cols` columns,
/// oh*pitch rounded up to 16 so that every tile takes the VNNI kernel. The
/// columns that are no output pixel (ox >= ow, or past oh*pitch) are pad
/// columns: their values are well defined but meaningless, and
/// DropPadColumns skips them.
struct Int8PatchPlan {
  explicit Int8PatchPlan(const conv::Plan& p);

  Index c, h, w;            ///< one input image [c, h, w]
  int stride, padding;
  Index oh, ow;             ///< output pixels
  Index k;                  ///< taps: the panel depth, c*kh*kw
  Index phase_rows, pitch;  ///< shape of one channel of one phase
  Index cols;               ///< panel columns, a multiple of 16
  /// taps[l]: offset of tap l from a column in the phase copy.
  std::vector<Index> taps;
  /// Floats of the phase copy, with the zeroed slack the pad columns read.
  Index phase_floats;

  /// Scratch floats QuantizePackPatchesInt8 takes: the phase copy and one
  /// reciprocal scale per column.
  Index ScratchFloats() const { return phase_floats + cols; }
};

/// Quantizes and packs the patch matrix of one [c, h, w] image into the
/// panel layout above (Int8PanelBytes(pp.k, pp.cols) bytes), with the rule
/// of QuantizePackColsInt8: scales[q] = absmax/127 of column q (1.0 for an
/// all-zero column), codes clamp(rtne(x * 127/absmax), -127, 127). For
/// finite inputs, every output pixel's scale and codes are the bytes
/// QuantizePackColsInt8 gives for that pixel's column of the im2col
/// matrix; a NaN input may give another column scale. `scales` takes
/// pp.cols floats, `scratch` pp.ScratchFloats().
void QuantizePackPatchesInt8(const Int8PatchPlan& pp, const float* img,
                             float* scratch, int8_t* packed, float* scales);

/// Copies the output-pixel columns of `rows` rows of a product over the
/// patch panel (row stride pp.cols) into y [rows, oh*ow], dropping the pad
/// columns.
void DropPadColumns(const Int8PatchPlan& pp, Index rows, const float* c,
                    float* y);

/// fp32 out (m x n) = bias + x (m x k) · w (k x n), all row-major, for the
/// small dense layers beside the int8 kernels (the policy heads): each
/// element starts from bias[j] and takes one fmaf(x[i,l], w[l,j], acc) per
/// l ascending — GemmNN's per-element sequence (gemm.h). The VNNI builds
/// keep eight rows' accumulators in registers; the others run the rows one
/// at a time with the j loop vectorized. No pack; serial.
void LinearRowsF32(Index m, Index n, Index k, const float* x, const float* w,
                   const float* bias, float* out);

/// Packs Y (n x k int8, row stride ldy) *transposed* into the same layout,
/// i.e. PackInt8NN of Yᵀ: panel element (l, c0+t) = Y[(c0+t)*ldy + l]. The
/// publish-time path for channel-major quantized weights (quant.h stores
/// each output channel as a contiguous int8 row).
void PackInt8NT(Index k, Index n, const int8_t* y, Index ldy, int8_t* packed);

/// The int8 dot kernel over output rows [i0, i1):
///   C[i, j] = sa[i] * sb[j] * (Σ_l A[i,l] · panel(l,j))
///             [+ bias_row[i]] [+ bias_col[j]]
/// A is row-major int8 (row stride lda); `packed` is a PackInt8NN/NT panel
/// of n columns by k rows; sa/sb are the per-row / per-column dequantize
/// scales; either bias may be null. C (row stride ldc) is *overwritten*
/// (serve forwards always start from bias, never accumulate). Accumulation
/// is exact int32, so results are identical however rows are partitioned.
void Int8DotRows(Index i0, Index i1, Index n, Index k, const int8_t* a,
                 Index lda, const float* sa, const int8_t* packed,
                 const float* sb, const float* bias_row,
                 const float* bias_col, float* c, Index ldc);

/// Convenience wrapper: full C (m x n), rows partitioned over the global
/// runtime pool via ParallelKernel (bit-identical at any thread count —
/// integer accumulation plus per-element fp dequantize, both
/// partition-invariant).
void Int8GemmPrepacked(Index m, Index n, Index k, const int8_t* a, Index lda,
                       const float* sa, const int8_t* packed, const float* sb,
                       const float* bias_row, const float* bias_col, float* c,
                       Index ldc);

}  // namespace cews::nn::gemm

#endif  // CEWS_NN_GEMM_INT8_H_
