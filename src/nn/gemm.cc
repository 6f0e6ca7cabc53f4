#include "nn/gemm.h"

#include <cmath>
#include <type_traits>
#include <utility>

#include "common/stopwatch.h"
#include "nn/transpose.h"
#include "nn/workspace.h"
#include "obs/metrics.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#define CEWS_GEMM_AVX512 1
#endif

namespace cews::nn::gemm {

namespace {

obs::Counter* PackNsCounter() {
  static obs::Counter* const c = obs::GetCounter("gemm.pack_ns");
  return c;
}

/// Where reduction step l reads A: a[i * rsa + step(l)]. Plain steps stride
/// by csa; a row map sends step l to row lrows[l] (GemmNN's `lrows`).
struct StepStride {
  Index csa;
  Index operator()(Index l) const { return l * csa; }
};
struct StepMap {
  const Index* lrows;
  Index csa;
  Index operator()(Index l) const { return lrows[l] * csa; }
};

/// Packs B (k x n, row stride ldb) into the panel layout (k*n floats); with
/// `lrows`, panel row l is B row lrows[l]. Records the time spent into the
/// gemm.pack_ns counter.
void PackNN(Index k, Index n, const float* b, Index ldb, const Index* lrows,
            float* packed) {
  const uint64_t t0 = Stopwatch::NowNs();
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    const Index w = std::min<Index>(kNr, n - c0);
    float* tile = packed + k * c0;
    for (Index l = 0; l < k; ++l) {
      const Index row = lrows != nullptr ? lrows[l] : l;
      std::copy_n(b + row * ldb + c0, w, tile + l * w);
    }
  }
  PackNsCounter()->Add(Stopwatch::NowNs() - t0);
}

/// Packs Y (n x k, row stride ldy) *transposed* into the same panel layout,
/// i.e. PackNN of Yᵀ: panel element (j, c0+t) = Y[(c0+t)*ldy + j], moved by
/// 8x8 in-register transposes. Records pack time into gemm.pack_ns.
void PackNT(Index k, Index n, const float* y, Index ldy, float* packed) {
  const uint64_t t0 = Stopwatch::NowNs();
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    const Index w = std::min<Index>(kNr, n - c0);
    detail::Transpose(y + c0 * ldy, ldy, w, k, packed + k * c0, w);
  }
  PackNsCounter()->Add(Stopwatch::NowNs() - t0);
}

/// One row of C against w <= kNr columns of a B block whose row l starts at
/// b + l * ldb, one fmaf chain per column. kFresh (NT): fresh accumulators
/// added to C once; otherwise (NN) C holds the accumulators. The portable
/// build's path for every row the register blocks below take.
template <bool kFresh, typename Step>
void RowLoop(Index l0, Index l1, const float* arow, Step step, const float* b,
             Index ldb, Index w, float* crow) {
  float acc[kNr];
  for (Index t = 0; t < w; ++t) acc[t] = kFresh ? 0.0f : crow[t];
  for (Index l = l0; l < l1; ++l) {
    const float av = arow[step(l)];
    const float* p = b + l * ldb;
    for (Index t = 0; t < w; ++t) acc[t] = std::fmaf(av, p[t], acc[t]);
  }
  for (Index t = 0; t < w; ++t) {
    if constexpr (kFresh) {
      crow[t] += acc[t];
    } else {
      crow[t] = acc[t];
    }
  }
}

#ifdef CEWS_GEMM_AVX512

/// Calls fn(std::integral_constant<int, n>{}) for a runtime n in [N, kMax].
template <int N, int kMax, typename Fn>
void Dispatch(int n, Fn&& fn) {
  if constexpr (N <= kMax) {
    if (n == N) {
      fn(std::integral_constant<int, N>{});
    } else {
      Dispatch<N + 1, kMax>(n, fn);
    }
  }
}

/// One row of C, V vectors of 16 columns in registers: V independent fma
/// chains. Vector v of B row l is at b + l*ldb + (v/2)*tstride + 16*(v%2)
/// (32-column panel tiles lie tstride apart; B read in place has tstride
/// 32) and C's at crow + 16v. `last` masks the last vector's lanes.
template <int V, bool kFresh, typename Step>
void RowBlock(Index l0, Index l1, const float* arow, Step step, const float* b,
              Index ldb, Index tstride, __mmask16 last, float* crow) {
  __mmask16 mask[V];
  Index off[V];
  for (int v = 0; v < V; ++v) {
    mask[v] = v == V - 1 ? last : static_cast<__mmask16>(0xFFFF);
    off[v] = (v >> 1) * tstride + 16 * (v & 1);
  }
  __m512 acc[V];
  for (int v = 0; v < V; ++v) {
    acc[v] = kFresh ? _mm512_setzero_ps()
                    : _mm512_maskz_loadu_ps(mask[v], crow + 16 * v);
  }
  for (Index l = l0; l < l1; ++l) {
    const __m512 av = _mm512_set1_ps(arow[step(l)]);
    const float* bl = b + l * ldb;
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(mask[v], bl + off[v]),
                               acc[v]);
    }
  }
  for (int v = 0; v < V; ++v) {
    __m512 out = acc[v];
    if constexpr (kFresh) {
      out = _mm512_add_ps(_mm512_maskz_loadu_ps(mask[v], crow + 16 * v), out);
    }
    _mm512_mask_storeu_ps(crow + 16 * v, mask[v], out);
  }
}

/// Row blocks of 16 a lanes-as-rows block keeps in flight for CW columns:
/// enough for CW * blocks >= 8 fma chains.
constexpr int RowBlocksFor(int cw) { return (8 + cw - 1) / cw; }

/// Steps of A a lanes-as-rows block transposes at a time when A's rows are
/// not contiguous (at most 8 row blocks x 64 steps x 16 lanes = 32 KiB).
constexpr Index kStepChunk = 64;

/// Columns [0, CW) of C rows [i, i + nrows), nrows <= 16 * G: each column's
/// rows sit in the lanes of G vectors (row 16g + r in lane r of block g; the
/// spare lanes of the last block are masked), so CW x G fma chains run at
/// once, each element's chain unchanged. A's 16 rows at step l are one load
/// when rsa == 1 (A read transposed) and otherwise come from a transposed
/// copy of kStepChunk steps; B's element (l, t) at b[l*ldb + t] is
/// broadcast. kFresh as in RowLoop.
template <int CW, bool kFresh, typename Step>
void ColsBlock(Index i, Index nrows, Index k, const float* a, Index rsa,
               Step step, const float* b, Index ldb, float* c, Index ldc) {
  constexpr int G = RowBlocksFor(CW);
  Index rows[G];
  __mmask16 mask[G];
  for (int g = 0; g < G; ++g) {
    rows[g] = std::clamp<Index>(nrows - 16 * g, 0, 16);
    mask[g] = static_cast<__mmask16>((1u << rows[g]) - 1u);
  }
  alignas(64) float cbuf[CW][G][16];
  __m512 acc[CW][G];
  for (int t = 0; t < CW; ++t) {
    for (int g = 0; g < G; ++g) {
      if constexpr (!kFresh) {
        for (Index r = 0; r < rows[g]; ++r) {
          cbuf[t][g][r] = c[(i + 16 * g + r) * ldc + t];
        }
        acc[t][g] = _mm512_maskz_load_ps(mask[g], cbuf[t][g]);
      } else {
        acc[t][g] = _mm512_setzero_ps();
      }
    }
  }
  const auto fma_step = [&](const __m512* av, Index l) {
    const float* bl = b + l * ldb;
    for (int t = 0; t < CW; ++t) {
      const __m512 bv = _mm512_set1_ps(bl[t]);
      for (int g = 0; g < G; ++g) {
        acc[t][g] = _mm512_fmadd_ps(av[g], bv, acc[t][g]);
      }
    }
  };
  if (rsa == 1) {
    for (Index l = 0; l < k; ++l) {
      const float* al = a + i + step(l);
      __m512 av[G];
      for (int g = 0; g < G; ++g) {
        av[g] = _mm512_maskz_loadu_ps(mask[g], al + 16 * g);
      }
      fma_step(av, l);
    }
  } else {
    alignas(64) float at[G][kStepChunk][16];
    for (Index l0 = 0; l0 < k; l0 += kStepChunk) {
      const Index nl = std::min(kStepChunk, k - l0);
      for (int g = 0; g < G && rows[g] > 0; ++g) {
        const float* ablk = a + (i + 16 * g) * rsa;
        if constexpr (std::is_same_v<Step, StepStride>) {
          if (step.csa == 1) {
            detail::Transpose(ablk + l0, rsa, rows[g], nl, at[g][0], 16);
            continue;
          }
        }
        for (Index r = 0; r < rows[g]; ++r) {
          for (Index l = 0; l < nl; ++l) {
            at[g][l][r] = ablk[r * rsa + step(l0 + l)];
          }
        }
      }
      for (Index l = 0; l < nl; ++l) {
        __m512 av[G];
        for (int g = 0; g < G; ++g) {
          av[g] = _mm512_maskz_load_ps(mask[g], at[g][l]);
        }
        fma_step(av, l0 + l);
      }
    }
  }
  for (int t = 0; t < CW; ++t) {
    for (int g = 0; g < G; ++g) {
      _mm512_store_ps(cbuf[t][g], acc[t][g]);
      for (Index r = 0; r < rows[g]; ++r) {
        float& out = c[(i + 16 * g + r) * ldc + t];
        if constexpr (kFresh) {
          out += cbuf[t][g][r];
        } else {
          out = cbuf[t][g][r];
        }
      }
    }
  }
}

#endif  // CEWS_GEMM_AVX512

/// Rows [i0, i1) of a ragged column tile: w < kNr columns of a B block
/// whose row l starts at b + l * ldb, every step of the reduction at once
/// (an NN accumulator kept in registers across kKc blocks gets the same
/// bits as one stored and reloaded).
template <bool kFresh, typename Step>
void RaggedTile(Index i0, Index i1, Index w, Index k, const float* a,
                Index rsa, Step step, const float* b, Index ldb, float* c,
                Index ldc) {
#ifdef CEWS_GEMM_AVX512
  for (Index t0 = 0; t0 < w; t0 += 16) {
    Dispatch<1, 16>(static_cast<int>(std::min<Index>(16, w - t0)),
                    [&](auto cw) {
                      constexpr int CW = decltype(cw)::value;
                      constexpr Index kRows = 16 * RowBlocksFor(CW);
                      for (Index i = i0; i < i1; i += kRows) {
                        ColsBlock<CW, kFresh>(i, std::min(kRows, i1 - i), k,
                                              a, rsa, step, b + t0, ldb,
                                              c + t0, ldc);
                      }
                    });
  }
#else
  for (Index i = i0; i < i1; ++i) {
    RowLoop<kFresh>(0, k, a + i * rsa, step, b, ldb, w, c + i * ldc);
  }
#endif
}

/// Steps [l0, l1) of one row against the full panel tiles [0, nfull): up to
/// four tiles (8 fma chains) in registers at a time.
template <bool kFresh, typename Step>
void RowOverTiles(Index l0, Index l1, const float* arow, Step step,
                  const float* packed, Index k, Index nfull, float* crow) {
#ifdef CEWS_GEMM_AVX512
  for (Index c0 = 0; c0 < nfull; c0 += 4 * kNr) {
    const int tiles = static_cast<int>(std::min<Index>(4, (nfull - c0) / kNr));
    Dispatch<1, 4>(tiles, [&](auto nt) {
      RowBlock<2 * decltype(nt)::value, kFresh>(
          l0, l1, arow, step, packed + k * c0, kNr, k * kNr,
          static_cast<__mmask16>(0xFFFF), crow + c0);
    });
  }
#else
  for (Index c0 = 0; c0 < nfull; c0 += kNr) {
    RowLoop<kFresh>(l0, l1, arow, step, packed + k * c0, kNr, kNr, crow + c0);
  }
#endif
}

/// NN with B read in place (no pack): one row of C at a time, up to 128
/// columns (8 fma chains) in registers, the last vector masked.
void RowInPlace(Index n, Index k, const float* arow, Index csa,
                const float* b, Index ldb, float* crow) {
#ifdef CEWS_GEMM_AVX512
  for (Index c0 = 0; c0 < n; c0 += 128) {
    const Index cols = std::min<Index>(128, n - c0);
    const int vecs = static_cast<int>((cols + 15) / 16);
    const auto last =
        static_cast<__mmask16>((1u << (cols - 16 * (vecs - 1))) - 1u);
    Dispatch<1, 8>(vecs, [&](auto v) {
      RowBlock<decltype(v)::value, false>(0, k, arow, StepStride{csa},
                                          b + c0, ldb, 32, last, crow + c0);
    });
  }
#else
  for (Index c0 = 0; c0 < n; c0 += kNr) {
    RowLoop<false>(0, k, arow, StepStride{csa}, b + c0, ldb,
                   std::min<Index>(kNr, n - c0), crow + c0);
  }
#endif
}

/// NN kernel over rows [i0, i1): C[i, 0..n) += A_row_i · B using a packed B
/// panel. A is read at a[i*rsa + step(l)] (rsa=k, csa=1 for a plain
/// row-major A; rsa=1, csa=lda for a transposed read). C (row stride ldc)
/// must be pre-initialized; accumulation per element is l ascending.
template <typename Step>
void NNRows(Index i0, Index i1, Index n, Index k, const float* a, Index rsa,
            Step step, const float* packed, float* c, Index ldc) {
  const Index nfull = n / kNr * kNr;
  const Index iblk = i0 + (i1 - i0) / kMr * kMr;
  for (Index l0 = 0; l0 < k && nfull > 0; l0 += kKc) {
    const Index l1 = std::min(k, l0 + kKc);
    for (Index c0 = 0; c0 < nfull; c0 += kNr) {
      const float* tile = packed + k * c0;
      // Full tile: kMr x kNr register block. The l0..l1 slab of the panel
      // (16 KiB) stays L1-resident across the whole row loop; C tiles are
      // loaded once per (row block, l block) and stored back — an exact
      // roundtrip, so the per-element add sequence matches the in-memory
      // accumulation of the reference kernel.
      for (Index i = i0; i < iblk; i += kMr) {
        float acc[kMr][kNr];
        for (Index r = 0; r < kMr; ++r) {
          const float* crow = c + (i + r) * ldc + c0;
          for (Index t = 0; t < kNr; ++t) acc[r][t] = crow[t];
        }
        for (Index l = l0; l < l1; ++l) {
          const float* p = tile + l * kNr;
          const Index off = step(l);
          for (Index r = 0; r < kMr; ++r) {
            const float av = a[(i + r) * rsa + off];
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
    for (Index i = iblk; i < i1; ++i) {
      RowOverTiles<false>(l0, l1, a + i * rsa, step, packed, k, nfull,
                          c + i * ldc);
    }
  }
  if (nfull < n) {
    RaggedTile<false>(i0, i1, n - nfull, k, a, rsa, step, packed + k * nfull,
                      n - nfull, c + nfull, ldc);
  }
}

/// NT kernel over rows [i0, i1): C[i, 0..n) += X_row_i · Yᵀ using a packed
/// Yᵀ panel (PackNT). Each output element is one fresh j-ascending dot
/// accumulator added to C once.
void NTRows(Index i0, Index i1, Index n, Index k, const float* x, Index ldx,
            const float* packed, float* c, Index ldc) {
  const Index nfull = n / kNr * kNr;
  const Index iblk = i0 + (i1 - i0) / kMr * kMr;
  for (Index c0 = 0; c0 < nfull; c0 += kNr) {
    const float* tile = packed + k * c0;
    for (Index i = i0; i < iblk; i += kMr) {
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
  for (Index i = iblk; i < i1; ++i) {
    RowOverTiles<true>(0, k, x + i * ldx, StepStride{1}, packed, k, nfull,
                       c + i * ldc);
  }
  if (nfull < n) {
    RaggedTile<true>(i0, i1, n - nfull, k, x, ldx, StepStride{1},
                     packed + k * nfull, n - nfull, c + nfull, ldc);
  }
}

}  // namespace

void GemmNN(Index m, Index n, Index k, const float* a, Index rsa, Index csa,
            const float* b, Index ldb, float* c, Index ldc,
            const Index* lrows) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (m < kMr && lrows == nullptr) {
    // Too few rows to repay a pack: every B element is read m times where
    // it lies instead.
    ParallelKernel(m, 2 * k * n, [&](Index r0, Index r1) {
      for (Index i = r0; i < r1; ++i) {
        RowInPlace(n, k, a + i * rsa, csa, b, ldb, c + i * ldc);
      }
    });
    return;
  }
  ScopedVec packed(k * n);
  PackNN(k, n, b, ldb, lrows, packed.data());
  const float* p = packed.data();
  ParallelKernel(m, 2 * k * n, [&](Index r0, Index r1) {
    if (lrows != nullptr) {
      NNRows(r0, r1, n, k, a, rsa, StepMap{lrows, csa}, p, c, ldc);
    } else {
      NNRows(r0, r1, n, k, a, rsa, StepStride{csa}, p, c, ldc);
    }
  });
}

void GemmNT(Index m, Index n, Index k, const float* x, Index ldx,
            const float* y, Index ldy, float* c, Index ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  ScopedVec packed(k * n);
  PackNT(k, n, y, ldy, packed.data());
  const float* p = packed.data();
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
