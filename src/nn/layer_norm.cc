#include "nn/layer_norm.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#define CEWS_LN_ROW_LANES 1
#endif

namespace cews::nn::layer_norm {

namespace {

#ifdef CEWS_LN_ROW_LANES

// ---------------------------------------------------------------------------
// Row lanes: a group of 8 rows, one per double lane. Columns come in blocks
// of 8 floats; a block is loaded from each of the 8 rows and transposed so
// that vector c holds column c of every row. A row count below 8 repeats the
// last row into the spare lanes, whose results are dropped.
// ---------------------------------------------------------------------------

constexpr Index kRows = 8;

using F8 = __m256;   // 8 floats: 8 columns of one row, or 8 rows' column
using D8 = __m512d;  // 8 doubles: one per row of the group

// The plain _mm512_cvtps_pd/_mm512_cvtpd_ps start from an undefined vector,
// which GCC 12 reports as maybe-uninitialized; the zero-masked forms with an
// all-ones mask compute the same conversion.
D8 Widen(F8 v) { return _mm512_maskz_cvtps_pd(0xFF, v); }
F8 Narrow(D8 v) { return _mm512_maskz_cvtpd_ps(0xFF, v); }

/// Mask of the first `cols` (1..8) lanes of a column block.
__mmask8 ColMask(Index cols) {
  return static_cast<__mmask8>((1u << static_cast<unsigned>(cols)) - 1u);
}

F8 LoadCols(__mmask8 k, const float* p) { return _mm256_maskz_loadu_ps(k, p); }

/// In-register 8x8 transpose: r[i] lane j becomes r[j] lane i. Forced
/// inline so the block stays in registers.
[[gnu::always_inline]] inline void Transpose8x8(F8 r[8]) {
  F8 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {
    r[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int i = 0; i < 4; ++i) {
    t[i] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x20);
    t[i + 4] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x31);
  }
  for (int i = 0; i < 8; ++i) r[i] = t[i];
}

/// Calls fn(col, cols) for each column block of the group's rows, in column
/// order: col[c] holds column j0 + c of every row. Full blocks pass cols as
/// a compile-time 8 so their loops unroll.
template <typename Fn>
void ForEachColumnBlock(const float* const row[kRows], Index f, Fn&& fn) {
  F8 col[kRows];
  Index j0 = 0;
  for (; j0 + 8 <= f; j0 += 8) {
    for (Index r = 0; r < kRows; ++r) col[r] = _mm256_loadu_ps(row[r] + j0);
    Transpose8x8(col);
    fn(col, std::integral_constant<Index, 8>{});
  }
  if (j0 < f) {
    const __mmask8 k = ColMask(f - j0);
    for (Index r = 0; r < kRows; ++r) col[r] = LoadCols(k, row[r] + j0);
    Transpose8x8(col);
    fn(col, f - j0);
  }
}

/// out row = relu(fmaf((x - mu) * is, gamma, beta)), 8 columns at a time.
void NormalizeRow(Index f, const float* x, float mu, float is,
                  const float* gamma, const float* beta, float* out) {
  const F8 m = _mm256_set1_ps(mu), s = _mm256_set1_ps(is);
  const F8 zero = _mm256_setzero_ps();
  for (Index j = 0; j < f; j += 8) {
    const __mmask8 k = ColMask(std::min<Index>(8, f - j));
    const F8 xh = _mm256_mul_ps(_mm256_sub_ps(LoadCols(k, x + j), m), s);
    const F8 y =
        _mm256_fmadd_ps(xh, LoadCols(k, gamma + j), LoadCols(k, beta + j));
    _mm256_mask_storeu_ps(
        out + j, k,
        _mm256_maskz_mov_ps(_mm256_cmp_ps_mask(y, zero, _CMP_GT_OQ), y));
  }
}

void ForwardGroup(const float* x, Index rows, Index f, float eps,
                  const float* gamma, const float* beta, float* mu_out,
                  float* is_out, float* out) {
  const float* row[kRows];
  for (Index r = 0; r < kRows; ++r) row[r] = x + std::min(r, rows - 1) * f;
  const D8 fd = _mm512_set1_pd(static_cast<double>(f));
  D8 mu = _mm512_setzero_pd();
  ForEachColumnBlock(row, f, [&](const F8* col, auto cols) {
    for (Index c = 0; c < cols; ++c) mu = _mm512_add_pd(mu, Widen(col[c]));
  });
  mu = _mm512_div_pd(mu, fd);
  D8 var = _mm512_setzero_pd();
  ForEachColumnBlock(row, f, [&](const F8* col, auto cols) {
    for (Index c = 0; c < cols; ++c) {
      const D8 d = _mm512_sub_pd(Widen(col[c]), mu);
      var = _mm512_fmadd_pd(d, d, var);
    }
  });
  var = _mm512_div_pd(var, fd);
  const F8 is = _mm256_div_ps(
      _mm256_set1_ps(1.0f),
      _mm256_sqrt_ps(_mm256_add_ps(Narrow(var), _mm256_set1_ps(eps))));
  alignas(32) float muf[kRows], isf[kRows];
  _mm256_store_ps(muf, Narrow(mu));
  _mm256_store_ps(isf, is);
  for (Index r = 0; r < rows; ++r) {
    mu_out[r] = muf[r];
    is_out[r] = isf[r];
    NormalizeRow(f, x + r * f, muf[r], isf[r], gamma, beta, out + r * f);
  }
}

/// One pass over the group's x, out and dy: g and xh per row (kept in
/// `gs`/`xs`, [rows][f] each, for the dx pass, and whenever `keep` is set),
/// the gamma/beta gradients with rows in order, and the two row sums in
/// lanes. Then dx row by row from gs/xs.
void BackwardGroup(const float* x, const float* gamma, const float* out,
                   const float* dy, Index rows, Index f, const float* mu,
                   const float* is, float* dx, float* dgamma, float* dbeta,
                   float* gs, float* xs, bool keep) {
  Index src[kRows];
  F8 muv[kRows], isv[kRows];
  for (Index r = 0; r < kRows; ++r) {
    src[r] = std::min(r, rows - 1);
    muv[r] = _mm256_set1_ps(mu[src[r]]);
    isv[r] = _mm256_set1_ps(is[src[r]]);
  }
  const F8 zero = _mm256_setzero_ps(), one = _mm256_set1_ps(1.0f);
  D8 sg = _mm512_setzero_pd(), sgx = _mm512_setzero_pd();
  for (Index j0 = 0; j0 < f; j0 += 8) {
    const Index cols = std::min<Index>(8, f - j0);
    const __mmask8 k = ColMask(cols);
    F8 g[kRows], xh[kRows];
    for (Index r = 0; r < kRows; ++r) {
      const Index at = src[r] * f + j0;
      const F8 relu = _mm256_maskz_mov_ps(
          _mm256_cmp_ps_mask(LoadCols(k, out + at), zero, _CMP_GT_OQ), one);
      g[r] = _mm256_add_ps(zero, _mm256_mul_ps(LoadCols(k, dy + at), relu));
      xh[r] = _mm256_mul_ps(_mm256_sub_ps(LoadCols(k, x + at), muv[r]), isv[r]);
    }
    if (dgamma != nullptr) {
      F8 acc = LoadCols(k, dgamma + j0);
      for (Index r = 0; r < rows; ++r) acc = _mm256_fmadd_ps(g[r], xh[r], acc);
      _mm256_mask_storeu_ps(dgamma + j0, k, acc);
    }
    if (dbeta != nullptr) {
      F8 acc = LoadCols(k, dbeta + j0);
      for (Index r = 0; r < rows; ++r) acc = _mm256_add_ps(acc, g[r]);
      _mm256_mask_storeu_ps(dbeta + j0, k, acc);
    }
    if (dx == nullptr && !keep) continue;
    for (Index r = 0; r < rows; ++r) {
      _mm256_mask_storeu_ps(gs + r * f + j0, k, g[r]);
      _mm256_mask_storeu_ps(xs + r * f + j0, k, xh[r]);
    }
    if (dx == nullptr) continue;
    Transpose8x8(g);
    Transpose8x8(xh);
    for (Index c = 0; c < cols; ++c) {
      const D8 gj = _mm512_mul_pd(
          Widen(g[c]), _mm512_set1_pd(static_cast<double>(gamma[j0 + c])));
      sg = _mm512_add_pd(sg, gj);
      sgx = _mm512_fmadd_pd(gj, Widen(xh[c]), sgx);
    }
  }
  if (dx == nullptr) return;
  const D8 fd = _mm512_set1_pd(static_cast<double>(f));
  alignas(64) double mg[kRows], mgx[kRows];
  _mm512_store_pd(mg, _mm512_div_pd(sg, fd));
  _mm512_store_pd(mgx, _mm512_div_pd(sgx, fd));
  for (Index r = 0; r < rows; ++r) {
    const D8 mgr = _mm512_set1_pd(mg[r]), mgxr = _mm512_set1_pd(mgx[r]);
    const D8 isr = _mm512_set1_pd(static_cast<double>(is[r]));
    const float* gr = gs + r * f;
    const float* xr = xs + r * f;
    float* dxr = dx + r * f;
    for (Index j = 0; j < f; j += 8) {
      const __mmask8 k = ColMask(std::min<Index>(8, f - j));
      const D8 gj = _mm512_mul_pd(Widen(LoadCols(k, gr + j)),
                                  Widen(LoadCols(k, gamma + j)));
      const D8 t = _mm512_fnmadd_pd(Widen(LoadCols(k, xr + j)), mgxr,
                                    _mm512_sub_pd(gj, mgr));
      _mm256_mask_storeu_ps(
          dxr + j, k,
          _mm256_add_ps(LoadCols(k, dxr + j), Narrow(_mm512_mul_pd(t, isr))));
    }
  }
}

#else  // !CEWS_LN_ROW_LANES

// ---------------------------------------------------------------------------
// Scalar rows: one row at a time, the contract written out literally.
// ---------------------------------------------------------------------------

constexpr Index kRows = 1;

void ForwardGroup(const float* x, Index /*rows*/, Index f, float eps,
                  const float* gamma, const float* beta, float* mu_out,
                  float* is_out, float* out) {
  double mu = 0.0;
  for (Index j = 0; j < f; ++j) mu += static_cast<double>(x[j]);
  mu /= static_cast<double>(f);
  double var = 0.0;
  for (Index j = 0; j < f; ++j) {
    const double d = static_cast<double>(x[j]) - mu;
    var = std::fma(d, d, var);
  }
  var /= static_cast<double>(f);
  const float muf = static_cast<float>(mu);
  const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps);
  *mu_out = muf;
  *is_out = is;
  for (Index j = 0; j < f; ++j) {
    const float xh = (x[j] - muf) * is;
    const float y = std::fmaf(xh, gamma[j], beta[j]);
    out[j] = y > 0.0f ? y : 0.0f;
  }
}

void BackwardGroup(const float* x, const float* gamma, const float* out,
                   const float* dy, Index /*rows*/, Index f, const float* mu,
                   const float* is, float* dx, float* dgamma, float* dbeta,
                   float* g, float* xh, bool /*keep*/) {
  for (Index j = 0; j < f; ++j) {
    g[j] = 0.0f + dy[j] * (out[j] > 0.0f ? 1.0f : 0.0f);
    xh[j] = (x[j] - *mu) * *is;
    if (dgamma != nullptr) dgamma[j] = std::fmaf(g[j], xh[j], dgamma[j]);
    if (dbeta != nullptr) dbeta[j] += g[j];
  }
  if (dx == nullptr) return;
  double sg = 0.0, sgx = 0.0;
  for (Index j = 0; j < f; ++j) {
    const double gj = static_cast<double>(g[j]) * static_cast<double>(gamma[j]);
    sg += gj;
    sgx = std::fma(gj, static_cast<double>(xh[j]), sgx);
  }
  const double mg = sg / static_cast<double>(f);
  const double mgx = sgx / static_cast<double>(f);
  const double isd = static_cast<double>(*is);
  for (Index j = 0; j < f; ++j) {
    const double gj = static_cast<double>(g[j]) * static_cast<double>(gamma[j]);
    dx[j] += static_cast<float>(
        std::fma(-static_cast<double>(xh[j]), mgx, gj - mg) * isd);
  }
}

#endif  // CEWS_LN_ROW_LANES

/// The dgamma/dbeta chains of a row-mapped backward: logical rows in order,
/// each reading its distinct row's kept g and xh (`gs`/`xs`, [n][f]). The
/// feature loops vectorise.
void ReplayParamGrads(Index f, const std::vector<Index>& rows, const float* gs,
                      const float* xs, float* dgamma, float* dbeta) {
  for (const Index u : rows) {
    const float* g = gs + u * f;
    const float* xh = xs + u * f;
    if (dgamma != nullptr) {
      for (Index j = 0; j < f; ++j) {
        dgamma[j] = std::fmaf(g[j], xh[j], dgamma[j]);
      }
    }
    if (dbeta != nullptr) {
      for (Index j = 0; j < f; ++j) dbeta[j] += g[j];
    }
  }
}

}  // namespace

Index BackwardScratchFloats(Index n, Index f, bool mapped) {
  return 2 * (mapped ? n : kRows) * f;
}

void Forward(Index n, Index f, float eps, const float* x, const float* gamma,
             const float* beta, float* stats, float* out) {
  float* mu = stats;
  float* is = stats + n;
  for (Index i = 0; i < n; i += kRows) {
    ForwardGroup(x + i * f, std::min(kRows, n - i), f, eps, gamma, beta,
                 mu + i, is + i, out + i * f);
  }
}

void Backward(Index n, Index f, const float* x, const float* gamma,
              const float* out, const float* dy, const float* stats, float* dx,
              float* dgamma, float* dbeta, float* scratch,
              const std::vector<Index>* rows) {
  const float* mu = stats;
  const float* is = stats + n;
  // Unmapped, each row group reuses one group's g/xh scratch and adds its
  // rows to dgamma/dbeta as it goes. Mapped, every distinct row keeps its
  // g/xh and the parameter chains replay the logical rows afterwards.
  const bool mapped = rows != nullptr;
  for (Index i = 0; i < n; i += kRows) {
    const Index at = i * f;
    float* gs = mapped ? scratch + at : scratch;
    float* xs = gs + (mapped ? n : kRows) * f;
    BackwardGroup(x + at, gamma, out + at, dy + at, std::min(kRows, n - i), f,
                  mu + i, is + i, dx != nullptr ? dx + at : nullptr,
                  mapped ? nullptr : dgamma, mapped ? nullptr : dbeta, gs, xs,
                  mapped);
  }
  if (mapped) {
    ReplayParamGrads(f, *rows, scratch, scratch + n * f, dgamma, dbeta);
  }
}

}  // namespace cews::nn::layer_norm
