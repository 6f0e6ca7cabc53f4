// cews::nn::gemm — packed, cache-blocked, SIMD-friendly GEMM micro-kernels.
//
// Every dense MatMul product in the NN substrate routes through the two
// kernel shapes below: MatMul forward (C = A·B) and both MatMul backward
// products (dA = dC·Bᵀ, dB = Aᵀ·dC). Conv2d has its own direct kernels
// (nn/conv.h).
//
//  * NN ("axpy" accumulation): C[i, j] += Σ_l A[i, l] · B[l, j], where the
//    per-element accumulation order is l ascending and C is accumulated in
//    place. Because the partial sums live in C (or in registers that are
//    stored back and reloaded exactly), the reduction may be blocked over l
//    (Kc tiling) without changing a single bit.
//  * NT ("dot" accumulation): C[i, l] += Σ_j X[i, j] · Y[l, j], where each
//    element's dot product is a single fresh accumulator filled j ascending
//    and added to C once. Splitting the j loop would reassociate the sum, so
//    the NT kernel never blocks the reduction dimension.
//
// Bitwise-determinism contract (extends PR 1's any-thread-count contract):
// packing, register tiling (kMr x kNr), Kc blocking (NN only) and row
// partitioning all change *which* memory the operands stream from and which
// rows a thread owns — never the per-element floating-point operation
// sequence. That sequence is pinned in source: every multiply-accumulate is
// an explicit std::fmaf (one rounding), so the compiler's per-loop-shape
// contraction choice cannot silently diverge between kernels — GCC at -O3
// contracts `acc += a * b` to an FMA in some loop shapes (the old axpy
// kernels) but not others (the old dot-product reductions). Packed results
// are therefore bitwise identical to the retained reference kernels below
// for finite inputs, at any thread count; verified by tests/nn_gemm_test.cc.
// The one intentional semantic change: the old
// kernels skipped A-operands that were exactly 0.0f; the packed kernels
// multiply through, which adds ±0 contributions — bitwise neutral for
// finite B (and for C accumulators, which can never become -0.0 by
// round-to-nearest addition).
//
// Packed-panel layout (shared by both kernels): the B/Y operand is packed
// into column tiles of width kNr. For the tile covering output columns
// [c0, c0+w), w = min(kNr, n-c0), the tile starts at offset k*c0 and stores
// element (l, c0+t) at tile[l*w + t]. A full pack is therefore exactly k*n
// floats, and the kernels' inner loops read it with unit stride. PackNT
// moves Yᵀ into it by 8x8 in-register transposes (nn/transpose.h).
//
// Register blocking: the shape alone picks the path, and every path keeps
// at least 8 independent fma chains in flight where the shape has them.
//  * Full tiles (w = kNr): kMr x kNr blocks of rows.
//  * Rows of full tiles left over after the kMr blocks: one row at a time
//    against up to four tiles (128 columns, 8 vectors) in registers.
//  * Ragged tiles (w < kNr: the heads' 34-, 4- and 1-wide outputs, the
//    16-column tail of a 400-column NT): lanes hold rows instead of
//    columns. Each output column keeps up to 16 rows in the lanes of one
//    vector, the last row block masked, and ceil(8 / columns) row blocks
//    run at once (columns taken 16 at a time). A's 16 rows at a step are
//    one load when A is read transposed (rsa = 1), else a transposed copy.
//  * NN calls with fewer than kMr rows (batch-1 acting) read B in place
//    instead of packing it: one row against up to 128 columns, the last
//    vector masked.
// These register blocks are AVX-512 builds' paths; other builds run every
// leftover row and ragged tile through the one-row loop the packed kernels
// always had. Each element keeps the fmaf chain of the reference kernels,
// so all paths give the same bytes.
#ifndef CEWS_NN_GEMM_H_
#define CEWS_NN_GEMM_H_

#include <algorithm>
#include <cstdint>

#include "common/thread_pool.h"
#include "nn/tensor.h"

namespace cews::nn::gemm {

/// Register-tile width in output columns (floats). 32 = two AVX-512 (or
/// four AVX2) accumulator vectors per row.
inline constexpr Index kNr = 32;

/// Register-tile height in output rows. kMr * kNr/16 = 8 independent FMA
/// chains per loop step — enough to hide FMA latency on current x86. An NN
/// call with fewer rows reads B in place (file comment).
inline constexpr Index kMr = 4;

/// Reduction-dimension block for the NN kernel: a kKc x kNr panel slab is
/// 16 KiB, L1-resident while the row loop streams over it. (The NT kernel
/// must not block its reduction; see file comment.)
inline constexpr Index kKc = 128;

/// Parallelizes [0, n) over the global cews::runtime pool when the total
/// kernel cost (roughly `flops_per_index * n`) justifies the dispatch
/// overhead; otherwise runs inline. The grain is sized so every claimed
/// chunk carries at least the dispatch-amortizing minimum of work, which
/// keeps tiny-row kernels from degenerating into per-index task churn.
/// Threshold and grain pick scheduling only — by the thread-pool contract
/// (chunks never change what a body invocation computes) they cannot change
/// any result.
template <typename Fn>
void ParallelKernel(Index n, Index flops_per_index, Fn&& fn) {
  constexpr Index kMinFlops = 16 * 1024;
  runtime::ThreadPool& pool = runtime::GlobalPool();
  const Index per = std::max<Index>(flops_per_index, 1);
  if (n <= 1 || pool.num_threads() <= 1 || n * per < kMinFlops) {
    fn(Index{0}, n);
    return;
  }
  const Index grain = std::clamp<Index>(kMinFlops / per, 1, n);
  pool.ParallelFor(0, n, grain, [&fn](int64_t begin, int64_t end) {
    fn(static_cast<Index>(begin), static_cast<Index>(end));
  });
}

/// Convenience wrapper: C (m x n, ldc) += A (m x k, strides rsa/csa) ·
/// B (k x n, ldb). Packs B into the per-thread workspace, then runs NNRows
/// over the pool (rows partitioned; results independent of thread count).
/// With fewer than kMr rows and no `lrows`, B is read in place.
///
/// `lrows` (k entries) replays a row map (nn/ops.h "RowMap") along the
/// reduction: step l reads A at a[i*rsa + lrows[l]*csa] and B row
/// lrows[l], so dB = Aᵀ·dC over a batch's logical rows reads operands
/// that hold only its distinct rows, with each element's chain unchanged.
void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc,
            const Index* lrows = nullptr);

/// Convenience wrapper: C (m x n, ldc) += X (m x k, ldx) · Y (n x k, ldy)ᵀ,
/// packing Y into the per-thread workspace.
void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc);

/// The pre-packing scalar kernels, retained (loop structure verbatim,
/// multiply-accumulates spelled as std::fmaf like the packed kernels) as the
/// bitwise spec the packed kernels are tested against (tests/nn_gemm_test.cc)
/// and as the baseline the kernel bench sweep reports speedups over. Serial.
namespace reference {

/// The old MatMul-forward/dB/Conv2d-product loop: k-tiled axpy accumulation
/// with the zero-skip on A operands.
void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc);

/// The old dA/dW loop: scalar j-ascending dot products.
void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc);

}  // namespace reference

}  // namespace cews::nn::gemm

#endif  // CEWS_NN_GEMM_H_
