#include "nn/gemm.h"

#include <cmath>

#include "common/stopwatch.h"
#include "nn/workspace.h"
#include "obs/metrics.h"

namespace cews::nn::gemm {

namespace {

obs::Counter* PackNsCounter() {
  static obs::Counter* const c = obs::GetCounter("gemm.pack_ns");
  return c;
}

/// Packs B (k x n, row stride ldb) into the panel layout (k*n floats).
/// Records the time spent into the gemm.pack_ns counter.
void PackNN(Index k, Index n, const float* b, Index ldb, float* packed) {
  const uint64_t t0 = Stopwatch::NowNs();
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    const Index w = std::min<Index>(kNr, n - c0);
    float* tile = packed + k * c0;
    for (Index l = 0; l < k; ++l) {
      const float* src = b + l * ldb + c0;
      float* dst = tile + l * w;
      for (Index t = 0; t < w; ++t) dst[t] = src[t];
    }
  }
  PackNsCounter()->Add(Stopwatch::NowNs() - t0);
}

/// Packs Y (n x k, row stride ldy) *transposed* into the same panel layout,
/// i.e. PackNN of Yᵀ: panel element (j, c0+t) = Y[(c0+t)*ldy + j]. Records
/// pack time into gemm.pack_ns.
void PackNT(Index k, Index n, const float* y, Index ldy, float* packed) {
  const uint64_t t0 = Stopwatch::NowNs();
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    const Index w = std::min<Index>(kNr, n - c0);
    float* tile = packed + k * c0;
    for (Index t = 0; t < w; ++t) {
      const float* yrow = y + (c0 + t) * ldy;
      for (Index j = 0; j < k; ++j) tile[j * w + t] = yrow[j];
    }
  }
  PackNsCounter()->Add(Stopwatch::NowNs() - t0);
}

/// NN kernel over rows [i0, i1): C[i, 0..n) += A_row_i · B using a packed B
/// panel. A is read at a[i*rsa + l*csa] (rsa=k, csa=1 for a plain row-major
/// A; rsa=1, csa=lda for a transposed read). C (row stride ldc) must be
/// pre-initialized; accumulation per element is l ascending.
void NNRows(Index i0, Index i1, Index n, Index k, const float* a, Index rsa,
            Index csa, const float* packed, float* c, Index ldc) {
  for (Index l0 = 0; l0 < k; l0 += kKc) {
    const Index l1 = std::min(k, l0 + kKc);
    for (Index c0 = 0; c0 < n; c0 += kNr) {
      const Index w = std::min<Index>(kNr, n - c0);
      const float* tile = packed + k * c0;
      Index i = i0;
      if (w == kNr) {
        // Full tile: kMr x kNr register block. The l0..l1 slab of the panel
        // (16 KiB) stays L1-resident across the whole row loop; C tiles are
        // loaded once per (row block, l block) and stored back — an exact
        // roundtrip, so the per-element add sequence matches the in-memory
        // accumulation of the reference kernel.
        for (; i + kMr <= i1; i += kMr) {
          float acc[kMr][kNr];
          for (Index r = 0; r < kMr; ++r) {
            const float* crow = c + (i + r) * ldc + c0;
            for (Index t = 0; t < kNr; ++t) acc[r][t] = crow[t];
          }
          for (Index l = l0; l < l1; ++l) {
            const float* p = tile + l * kNr;
            for (Index r = 0; r < kMr; ++r) {
              const float av = a[(i + r) * rsa + l * csa];
              for (Index t = 0; t < kNr; ++t)
                acc[r][t] = std::fmaf(av, p[t], acc[r][t]);
            }
          }
          for (Index r = 0; r < kMr; ++r) {
            float* crow = c + (i + r) * ldc + c0;
            for (Index t = 0; t < kNr; ++t) crow[t] = acc[r][t];
          }
        }
      }
      // Edge rows of a full tile, and every row of a ragged tile.
      for (; i < i1; ++i) {
        float acc[kNr];
        float* crow = c + i * ldc + c0;
        for (Index t = 0; t < w; ++t) acc[t] = crow[t];
        for (Index l = l0; l < l1; ++l) {
          const float av = a[i * rsa + l * csa];
          const float* p = tile + l * w;
          for (Index t = 0; t < w; ++t) acc[t] = std::fmaf(av, p[t], acc[t]);
        }
        for (Index t = 0; t < w; ++t) crow[t] = acc[t];
      }
    }
  }
}

/// NT kernel over rows [i0, i1): C[i, 0..n) += X_row_i · Yᵀ using a packed
/// Yᵀ panel (PackNT). Each output element is one fresh j-ascending dot
/// accumulator added to C once.
void NTRows(Index i0, Index i1, Index n, Index k, const float* x, Index ldx,
            const float* packed, float* c, Index ldc) {
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    const Index w = std::min<Index>(kNr, n - c0);
    const float* tile = packed + k * c0;
    Index i = i0;
    if (w == kNr) {
      for (; i + kMr <= i1; i += kMr) {
        // Fresh accumulators per element; the j loop is never split, so each
        // element is the same single serial dot product the reference
        // computes — just kMr x kNr of them in flight at once.
        float acc[kMr][kNr] = {};
        for (Index j = 0; j < k; ++j) {
          const float* p = tile + j * kNr;
          for (Index r = 0; r < kMr; ++r) {
            const float xv = x[(i + r) * ldx + j];
            for (Index t = 0; t < kNr; ++t)
              acc[r][t] = std::fmaf(xv, p[t], acc[r][t]);
          }
        }
        for (Index r = 0; r < kMr; ++r) {
          float* crow = c + (i + r) * ldc + c0;
          for (Index t = 0; t < kNr; ++t) crow[t] += acc[r][t];
        }
      }
    }
    for (; i < i1; ++i) {
      float acc[kNr] = {};
      const float* xrow = x + i * ldx;
      for (Index j = 0; j < k; ++j) {
        const float xv = xrow[j];
        const float* p = tile + j * w;
        for (Index t = 0; t < w; ++t) acc[t] = std::fmaf(xv, p[t], acc[t]);
      }
      float* crow = c + i * ldc + c0;
      for (Index t = 0; t < w; ++t) crow[t] += acc[t];
    }
  }
}

}  // namespace

void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc,
            float* pack_scratch) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  // A pack writes all k*n panel floats, so caller scratch needs no zeroing.
  ScopedVec packed(pack_scratch != nullptr ? 0 : k * n);
  float* pp = pack_scratch != nullptr ? pack_scratch : packed.data();
  PackNN(k, n, b, ldb, pp);
  const float* p = pp;
  ParallelKernel(m, 2 * k * n, [&](Index r0, Index r1) {
    NNRows(r0, r1, n, k, a, rsa, csa, p, c, ldc);
  });
}

void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc,
            float* pack_scratch) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  ScopedVec packed(pack_scratch != nullptr ? 0 : k * n);
  float* pp = pack_scratch != nullptr ? pack_scratch : packed.data();
  PackNT(k, n, y, ldy, pp);
  const float* p = pp;
  ParallelKernel(m, 2 * k * n, [&](Index r0, Index r1) {
    NTRows(r0, r1, n, k, x, ldx, p, c, ldc);
  });
}

namespace reference {

void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc) {
  // Verbatim structure of the pre-packing MatMulRowsKernel: k tiled at 64
  // so a slab of B rows stays cache-resident, zero-skip on A operands,
  // per-element accumulation l ascending directly into C.
  constexpr Index kLTile = 64;
  for (Index l0 = 0; l0 < k; l0 += kLTile) {
    const Index l1 = std::min(k, l0 + kLTile);
    for (Index i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      for (Index l = l0; l < l1; ++l) {
        const float av = a[i * rsa + l * csa];
        if (av == 0.0f) continue;
        const float* brow = b + l * ldb;
        for (Index j = 0; j < n; ++j) crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
  }
}

void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc) {
  // Verbatim structure of the pre-packing dA/dW loops: one scalar
  // j-ascending dot per output element, added to C once.
  for (Index i = 0; i < m; ++i) {
    const float* xrow = x + i * ldx;
    for (Index l = 0; l < n; ++l) {
      const float* yrow = y + l * ldy;
      float dot = 0.0f;
      for (Index j = 0; j < k; ++j) dot = std::fmaf(xrow[j], yrow[j], dot);
      c[i * ldc + l] += dot;
    }
  }
}

}  // namespace reference

}  // namespace cews::nn::gemm
