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
//  * Activations are quantized per row (or per im2col column) at request
//    time with the same round-to-nearest-even + saturate rule — an O(m*k)
//    pass against the O(m*n*k) product.
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
/// saturate(rtne(x / scales[i])) in [-127, 127]. Round-to-nearest-even via
/// std::nearbyintf under the default rounding mode — the same rule quant.h
/// applies to weights, so activation and weight grids agree.
void QuantizeRowsInt8(Index m, Index k, const float* x, Index ldx, int8_t* xq,
                      float* scales);

/// Per-column variant for im2col matrices: X is k x n (row stride ldx = n),
/// column j is one output pixel's patch. scales[j] = colmax|x|/127, xq keeps
/// the k x n row-major layout. One extra O(k*n) pass buys per-pixel scale
/// resolution — the accuracy knob that keeps conv-stage argmax agreement
/// high.
void QuantizeColsInt8(Index k, Index n, const float* x, Index ldx, int8_t* xq,
                      float* scales);

/// Packs B (k x n int8, row stride ldb) into the panel layout above
/// (Int8PanelBytes(k, n) bytes). The int8 analogue of the fp32 GEMM pack —
/// request-time path for quantized im2col columns.
void PackInt8NN(Index k, Index n, const int8_t* b, Index ldb, int8_t* packed);

/// QuantizeColsInt8 + PackInt8NN fused into one pass: quantizes the im2col
/// matrix X (k x n fp32) per column and writes the codes straight into the
/// panel layout, skipping the intermediate k x n int8 buffer (one whole
/// write+read+rewrite of the matrix — the request-time conv path's largest
/// avoidable memory cost). Bit-identical to running the two steps
/// separately; `packed` takes Int8PanelBytes(k, n) bytes.
void QuantizePackColsInt8(Index k, Index n, const float* x, Index ldx,
                          int8_t* packed, float* scales);

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
