#include "nn/gemm_int8.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX512VNNI__) && defined(__AVX512F__) && defined(__AVX512BW__)
#include <immintrin.h>
#define CEWS_INT8_VNNI 1
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized on the undef-lane
// builtins behind _mm512_set1_epi32 et al. (GCC PR105593); the lanes are
// fully written before use. Confine the suppression to this TU.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

#include "common/check.h"
#include "nn/gemm.h"
#include "nn/workspace.h"

namespace cews::nn::gemm {

namespace {

/// Round-to-nearest-even + saturating cast to [-127, 127]. -128 is excluded
/// so the symmetric grid has an exact negation for every code (and so an
/// int8 product can never hit the -128*-128 corner). NaN takes -127, as in
/// the vector paths (vcvtps2dq gives INT32_MIN, clamped to -127), and never
/// reaches the cast.
inline int8_t SaturateRtne(float x) {
  const float r = std::nearbyintf(x);
  if (r >= 127.0f) return 127;
  if (r > -127.0f) return static_cast<int8_t>(r);
  return -127;
}

/// Quantizes a contiguous run against one reciprocal scale. The vector
/// body rounds with vcvtps2dq under the default MXCSR mode — round to
/// nearest even, the same rule as nearbyintf — then clamps to ±127, so it
/// is bit-identical to the scalar tail (a scalar libm nearbyint per
/// element is what made per-request quantization rival the GEMM itself).
inline void QuantizeRun(const float* src, Index len, float inv, int8_t* dst) {
  Index l = 0;
#ifdef CEWS_INT8_VNNI
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  for (; l + 16 <= len; l += 16) {
    const __m512 x = _mm512_loadu_ps(src + l);
    __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(x, vinv));
    q = _mm512_max_epi32(lo, _mm512_min_epi32(hi, q));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + l),
                     _mm512_cvtsepi32_epi8(q));
  }
#endif
  for (; l < len; ++l) dst[l] = SaturateRtne(src[l] * inv);
}

/// Max |x| over a contiguous run. max is exact and order-free, and the
/// vector body's sign-mask is the same operation fabsf lowers to, so the
/// split makes no numerical difference.
inline float AbsMaxRun(const float* src, Index len) {
  float amax = 0.0f;
  Index l = 0;
#ifdef CEWS_INT8_VNNI
  if (len >= 16) {
    const __m512 mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
    __m512 vmax = _mm512_setzero_ps();
    for (; l + 16 <= len; l += 16) {
      vmax =
          _mm512_max_ps(vmax, _mm512_and_ps(mask, _mm512_loadu_ps(src + l)));
    }
    amax = _mm512_reduce_max_ps(vmax);
  }
#endif
  for (; l < len; ++l) amax = std::max(amax, std::fabs(src[l]));
  return amax;
}

}  // namespace

void QuantizeRowsInt8(Index m, Index k, const float* x, Index ldx, int8_t* xq,
                      float* scales) {
  for (Index i = 0; i < m; ++i) {
    const float* row = x + i * ldx;
    const float amax = AbsMaxRun(row, k);
    if (amax == 0.0f) {
      scales[i] = 1.0f;
      std::fill(xq + i * k, xq + (i + 1) * k, int8_t{0});
      continue;
    }
    scales[i] = amax / 127.0f;
    QuantizeRun(row, k, 127.0f / amax, xq + i * k);
  }
}

// The im2col column quantizers and PackInt8NN are references for the tests
// (the conv path's QuantizePackPatchesInt8 gives their bytes without an
// im2col matrix), so they stay plain scalar loops.

void QuantizeColsInt8(Index k, Index n, const float* x, Index ldx, int8_t* xq,
                      float* scales) {
  for (Index j = 0; j < n; ++j) {
    float amax = 0.0f;
    for (Index l = 0; l < k; ++l) {
      amax = std::max(amax, std::fabs(x[l * ldx + j]));
    }
    scales[j] = amax == 0.0f ? 1.0f : amax / 127.0f;
    const float inv = amax == 0.0f ? 0.0f : 127.0f / amax;
    for (Index l = 0; l < k; ++l) {
      xq[l * n + j] = SaturateRtne(x[l * ldx + j] * inv);
    }
  }
}

void QuantizePackColsInt8(Index k, Index n, const float* x, Index ldx,
                          int8_t* packed, float* scales) {
  const Index k4 = (k + kKuQ - 1) / kKuQ * kKuQ;
  float inv[kNrQ];
  for (Index c0 = 0; c0 < n; c0 += kNrQ) {
    const Index w = std::min<Index>(kNrQ, n - c0);
    int8_t* tile = packed + k4 * c0;
    for (Index t = 0; t < w; ++t) {
      float amax = 0.0f;
      for (Index l = 0; l < k; ++l) {
        amax = std::max(amax, std::fabs(x[l * ldx + c0 + t]));
      }
      scales[c0 + t] = amax == 0.0f ? 1.0f : amax / 127.0f;
      inv[t] = amax == 0.0f ? 0.0f : 127.0f / amax;
    }
    for (Index g = 0; g < k4 / kKuQ; ++g) {
      int8_t* dst = tile + g * w * kKuQ;
      for (Index u = 0; u < kKuQ; ++u) {
        const Index l = g * kKuQ + u;
        if (l < k) {
          const float* src = x + l * ldx + c0;
          for (Index t = 0; t < w; ++t) {
            dst[t * kKuQ + u] = SaturateRtne(src[t] * inv[t]);
          }
        } else {
          for (Index t = 0; t < w; ++t) dst[t * kKuQ + u] = 0;
        }
      }
    }
  }
}

Int8PatchPlan::Int8PatchPlan(const conv::Plan& p)
    : c(p.c),
      h(p.h),
      w(p.w),
      stride(p.stride),
      padding(p.padding),
      oh(p.oh),
      ow(p.ow),
      k(p.ck2()),
      phase_rows((p.hp + p.stride - 1) / p.stride),
      pitch((p.wp + p.stride - 1) / p.stride),
      cols((p.oh * pitch + 15) / 16 * 16) {
  const Index s = stride, plane = phase_rows * pitch;
  taps.reserve(static_cast<size_t>(k));
  Index last = 0;
  for (Index ic = 0; ic < c; ++ic) {
    for (Index ky = 0; ky < p.kh; ++ky) {
      for (Index kx = 0; kx < p.kw; ++kx) {
        const Index phase = (ky % s) * s + kx % s;
        taps.push_back((phase * c + ic) * plane + (ky / s) * pitch + kx / s);
        last = std::max(last, taps.back());
      }
    }
  }
  phase_floats = std::max(s * s * c * plane, last + cols);
}

namespace {

/// Writes the stride phases of one zero-padded image (see Int8PatchPlan)
/// and zeroes the slack after them. Phase (a, b) of channel ic starts at
/// ((a*s + b)*c + ic) * plane and holds padded pixel (yy, xx) at row yy / s,
/// column xx / s, with a = yy % s and b = xx % s; image pixel (iy, ix) is
/// padded pixel (iy + padding, ix + padding). The rows go phase row by
/// phase row, so the writes run in order.
void PadPhases(const Int8PatchPlan& pp, const float* img, float* xph) {
  const Index s = pp.stride, c = pp.c, h = pp.h, w = pp.w;
  const Index padding = pp.padding, pitch = pp.pitch;
  const Index plane = pp.phase_rows * pitch;
  const Index step = c * plane;  // phase (a, b) to phase (a, b + 1)
  std::fill(xph, xph + pp.phase_floats, 0.0f);
  for (Index a = 0; a < s; ++a) {
    for (Index ic = 0; ic < c; ++ic) {
      for (Index y = 0; y < pp.phase_rows; ++y) {
        const Index iy = s * y + a - padding;
        if (iy < 0 || iy >= h) continue;
        const float* src = img + (ic * h + iy) * w;
        float* row0 = xph + (a * s * c + ic) * plane + y * pitch;
        if (s == 1) {
          std::copy_n(src, w, row0 + padding);
          continue;
        }
#ifdef CEWS_INT8_VNNI
        if (s == 2) {
          // Per 16 image columns: the even ones go to one phase and the
          // odd ones to the other, each a contiguous run. This and the row
          // copy above are timed against the scatter loop below in README
          // "Serving".
          for (Index j = 0; j < w; j += 16) {
            const auto len = static_cast<unsigned>(std::min<Index>(16, w - j));
            const __m512 v = _mm512_maskz_loadu_ps((1u << len) - 1u, src + j);
            const Index xe = j + padding, xo = xe + 1;
            _mm512_mask_storeu_ps(row0 + (xe & 1) * step + (xe >> 1),
                                  (1u << ((len + 1) / 2)) - 1u,
                                  _mm512_maskz_compress_ps(0x5555, v));
            _mm512_mask_storeu_ps(row0 + (xo & 1) * step + (xo >> 1),
                                  (1u << (len / 2)) - 1u,
                                  _mm512_maskz_compress_ps(0xAAAA, v));
          }
          continue;
        }
#endif  // CEWS_INT8_VNNI
        Index b = padding % s, x = padding / s;
        for (Index ix = 0; ix < w; ++ix) {
          row0[b * step + x] = src[ix];
          if (++b == s) {
            b = 0;
            ++x;
          }
        }
      }
    }
  }
}

}  // namespace

void QuantizePackPatchesInt8(const Int8PatchPlan& pp, const float* img,
                             float* scratch, int8_t* packed, float* scales) {
  PadPhases(pp, img, scratch);
  const float* xph = scratch;
  float* inv = scratch + pp.phase_floats;
  const Index* taps = pp.taps.data();
  const Index k = pp.k;
  const Index kg = (k + kKuQ - 1) / kKuQ;
  const Index k4 = kg * kKuQ;
  // Pass 1, every column's scale and reciprocal (the divides of different
  // columns overlap); pass 2, the codes.
#ifdef CEWS_INT8_VNNI
  const __m512 abs_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  const __m512 v127 = _mm512_set1_ps(127.0f);
  const __m512 one = _mm512_set1_ps(1.0f);
  for (Index q0 = 0; q0 < pp.cols; q0 += 16) {
    // Four running maxima, so the max latency does not chain the taps; max
    // is exact, so for finite values any order gives the same bits.
    __m512 part[4] = {_mm512_setzero_ps(), _mm512_setzero_ps(),
                      _mm512_setzero_ps(), _mm512_setzero_ps()};
    for (Index l = 0; l < k; ++l) {
      part[l % 4] = _mm512_max_ps(
          part[l % 4],
          _mm512_and_ps(abs_mask, _mm512_loadu_ps(xph + taps[l] + q0)));
    }
    const __m512 amax = _mm512_max_ps(_mm512_max_ps(part[0], part[1]),
                                      _mm512_max_ps(part[2], part[3]));
    const __mmask16 z =
        _mm512_cmp_ps_mask(amax, _mm512_setzero_ps(), _CMP_EQ_OQ);
    _mm512_storeu_ps(scales + q0,
                     _mm512_mask_blend_ps(z, _mm512_div_ps(amax, v127), one));
    _mm512_storeu_ps(inv + q0, _mm512_maskz_div_ps(~z, v127, amax));
  }
  const __m512i lo = _mm512_set1_epi8(-127);
  // Within each 16-byte lane, the two signed-saturating packs leave the
  // codes tap-major (4 taps x 4 pixels); this shuffle makes them
  // pixel-major, the panel's 4-byte k-groups.
  const __m512i to_groups =
      _mm512_set4_epi32(0x0F0B0703, 0x0E0A0602, 0x0D090501, 0x0C080400);
#else
  for (Index q = 0; q < pp.cols; ++q) {
    float amax = 0.0f;
    for (Index l = 0; l < k; ++l) {
      amax = std::max(amax, std::fabs(xph[taps[l] + q]));
    }
    scales[q] = amax == 0.0f ? 1.0f : amax / 127.0f;
    inv[q] = amax == 0.0f ? 0.0f : 127.0f / amax;
  }
#endif  // CEWS_INT8_VNNI
  for (Index q0 = 0; q0 < pp.cols; q0 += 16) {
    // The 16 columns' place in their panel tile; k-group g starts at
    // dst + g * w * kKuQ.
    const Index c0 = q0 / kNrQ * kNrQ;
    const Index w = std::min<Index>(kNrQ, pp.cols - c0);
    int8_t* dst = packed + k4 * c0 + (q0 - c0) * kKuQ;
#ifdef CEWS_INT8_VNNI
    const __m512 vinv = _mm512_loadu_ps(inv + q0);
    for (Index g = 0; g < kg; ++g) {
      __m512i q[kKuQ];
      for (Index u = 0; u < kKuQ; ++u) {
        const Index l = g * kKuQ + u;
        q[u] = l < k ? _mm512_cvtps_epi32(_mm512_mul_ps(
                           _mm512_loadu_ps(xph + taps[l] + q0), vinv))
                     : _mm512_setzero_si512();
      }
      // Saturating to int16 and then int8 and raising -128 to -127 is the
      // clamp to [-127, 127].
      const __m512i codes = _mm512_packs_epi16(_mm512_packs_epi32(q[0], q[1]),
                                               _mm512_packs_epi32(q[2], q[3]));
      _mm512_storeu_si512(
          reinterpret_cast<void*>(dst + g * w * kKuQ),
          _mm512_max_epi8(_mm512_shuffle_epi8(codes, to_groups), lo));
    }
#else
    for (Index t = 0; t < 16; ++t) {
      const Index q = q0 + t;
      for (Index l = 0; l < k4; ++l) {
        dst[(l / kKuQ * w + t) * kKuQ + l % kKuQ] =
            l < k ? SaturateRtne(xph[taps[l] + q] * inv[q]) : int8_t{0};
      }
    }
#endif  // CEWS_INT8_VNNI
  }
}

void DropPadColumns(const Int8PatchPlan& pp, Index rows, const float* c,
                    float* y) {
  for (Index r = 0; r < rows; ++r) {
    for (Index oy = 0; oy < pp.oh; ++oy) {
      std::copy_n(c + r * pp.cols + oy * pp.pitch, pp.ow,
                  y + (r * pp.oh + oy) * pp.ow);
    }
  }
}

void LinearRowsF32(Index m, Index n, Index k, const float* x,
                   const float* w, const float* bias, float* out) {
#ifdef CEWS_INT8_VNNI
  // Eight rows' accumulators per 16 outputs: eight independent fma chains
  // in registers. A short last block repeats its last row in the spare
  // slots and drops their results.
  constexpr Index kRows = 8;
  for (Index i0 = 0; i0 < m; i0 += kRows) {
    const Index rows = std::min(kRows, m - i0);
    const float* xr[kRows];
    for (Index r = 0; r < kRows; ++r) {
      xr[r] = x + (i0 + std::min(r, rows - 1)) * k;
    }
    for (Index j0 = 0; j0 < n; j0 += 16) {
      const unsigned len = static_cast<unsigned>(std::min<Index>(16, n - j0));
      const __mmask16 mj = static_cast<__mmask16>((1u << len) - 1u);
      __m512 acc[kRows];
      for (Index r = 0; r < kRows; ++r) {
        acc[r] = _mm512_maskz_loadu_ps(mj, bias + j0);
      }
      for (Index l = 0; l < k; ++l) {
        const __m512 wv = _mm512_maskz_loadu_ps(mj, w + l * n + j0);
        for (Index r = 0; r < kRows; ++r) {
          acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(xr[r][l]), wv, acc[r]);
        }
      }
      for (Index r = 0; r < rows; ++r) {
        _mm512_mask_storeu_ps(out + (i0 + r) * n + j0, mj, acc[r]);
      }
    }
  }
#else
  // The same sequence per output with l outer and j inner, which the
  // compiler vectorizes across j.
  for (Index i = 0; i < m; ++i) {
    const float* row = x + i * k;
    float* orow = out + i * n;
    std::copy_n(bias, n, orow);
    for (Index l = 0; l < k; ++l) {
      const float xv = row[l];
      const float* wrow = w + l * n;
      for (Index j = 0; j < n; ++j) orow[j] = std::fmaf(xv, wrow[j], orow[j]);
    }
  }
#endif  // CEWS_INT8_VNNI
}

void PackInt8NN(Index k, Index n, const int8_t* b, Index ldb,
                int8_t* packed) {
  const Index k4 = (k + kKuQ - 1) / kKuQ * kKuQ;
  for (Index c0 = 0; c0 < n; c0 += kNrQ) {
    const Index w = std::min<Index>(kNrQ, n - c0);
    int8_t* tile = packed + k4 * c0;
    for (Index g = 0; g < k4 / kKuQ; ++g) {
      int8_t* dst = tile + g * w * kKuQ;
      for (Index u = 0; u < kKuQ; ++u) {
        const Index l = g * kKuQ + u;
        if (l < k) {
          const int8_t* src = b + l * ldb + c0;
          for (Index t = 0; t < w; ++t) dst[t * kKuQ + u] = src[t];
        } else {
          for (Index t = 0; t < w; ++t) dst[t * kKuQ + u] = 0;
        }
      }
    }
  }
}

void PackInt8NT(Index k, Index n, const int8_t* y, Index ldy,
                int8_t* packed) {
  const Index k4 = (k + kKuQ - 1) / kKuQ * kKuQ;
  for (Index c0 = 0; c0 < n; c0 += kNrQ) {
    const Index w = std::min<Index>(kNrQ, n - c0);
    int8_t* tile = packed + k4 * c0;
    for (Index t = 0; t < w; ++t) {
      const int8_t* yrow = y + (c0 + t) * ldy;
      for (Index g = 0; g < k4 / kKuQ; ++g) {
        int8_t* dst = tile + (g * w + t) * kKuQ;
        for (Index u = 0; u < kKuQ; ++u) {
          const Index l = g * kKuQ + u;
          dst[u] = l < k ? yrow[l] : int8_t{0};
        }
      }
    }
  }
}

namespace {

#ifdef CEWS_INT8_VNNI

/// Reads one 4-byte k-group of a staged offset-u8 row (see the staging
/// pass in Int8DotRows — bytes already hold a + 128 with a 0x80-padded k
/// tail, so this is a plain aligned-group word load).
inline uint32_t LoadOffsetWord(const uint8_t* aorow, Index g) {
  uint32_t word;
  std::memcpy(&word, aorow + g * kKuQ, 4);
  return word;
}

/// Full-width (w == kNrQ == 32) VNNI tile over rows [i, i+rows), rows <=
/// kMrQ. acc lanes hold sum((a+128) * b); the exact identity
/// sum(a*b) = sum((a+128)*b) - 128*colsum(b) recovers the signed dot in
/// int32 (no rounding anywhere), then the fp32 epilogue dequantizes.
inline void VnniTile(Index i, Index rows, Index kg, const uint8_t* ao,
                     Index ldao, const float* sa, const int8_t* tile,
                     const __m512i csum0, const __m512i csum1, const float* sb,
                     Index c0, const float* bias_row, const float* bias_col,
                     float* c, Index ldc) {
  __m512i acc0[kMrQ];
  __m512i acc1[kMrQ];
  for (Index r = 0; r < rows; ++r) {
    acc0[r] = _mm512_setzero_si512();
    acc1[r] = _mm512_setzero_si512();
  }
  for (Index g = 0; g < kg; ++g) {
    const int8_t* blk = tile + g * kNrQ * kKuQ;
    const __m512i b0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(blk));
    const __m512i b1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(blk + 64));
    for (Index r = 0; r < rows; ++r) {
      const __m512i av = _mm512_set1_epi32(
          static_cast<int32_t>(LoadOffsetWord(ao + r * ldao, g)));
      acc0[r] = _mm512_dpbusd_epi32(acc0[r], av, b0);
      acc1[r] = _mm512_dpbusd_epi32(acc1[r], av, b1);
    }
  }
  const __m512 sb0 = _mm512_loadu_ps(sb + c0);
  const __m512 sb1 = _mm512_loadu_ps(sb + c0 + 16);
  __m512 add0 = _mm512_setzero_ps();
  __m512 add1 = _mm512_setzero_ps();
  if (bias_col != nullptr) {
    add0 = _mm512_loadu_ps(bias_col + c0);
    add1 = _mm512_loadu_ps(bias_col + c0 + 16);
  }
  for (Index r = 0; r < rows; ++r) {
    const __m512i v0 = _mm512_sub_epi32(acc0[r], csum0);
    const __m512i v1 = _mm512_sub_epi32(acc1[r], csum1);
    const __m512 sr = _mm512_set1_ps(sa[i + r]);
    __m512 br = add0;
    __m512 br1 = add1;
    if (bias_row != nullptr) {
      const __m512 b = _mm512_set1_ps(bias_row[i + r]);
      br = _mm512_add_ps(br, b);
      br1 = _mm512_add_ps(br1, b);
    }
    // Explicit FMA pins the epilogue's rounding: with the default
    // -ffp-contract=fast the compiler may or may not contract a mul+add
    // per inlined instantiation, and rows processed via the kMrQ block
    // would round differently from rows processed via the remainder call.
    const __m512 f0 = _mm512_fmadd_ps(_mm512_mul_ps(sr, sb0),
                                      _mm512_cvtepi32_ps(v0), br);
    const __m512 f1 = _mm512_fmadd_ps(_mm512_mul_ps(sr, sb1),
                                      _mm512_cvtepi32_ps(v1), br1);
    float* crow = c + (i + r) * ldc + c0;
    _mm512_storeu_ps(crow, f0);
    _mm512_storeu_ps(crow + 16, f1);
  }
}

/// Half-width (w == 16) variant for the trailing tile of 16-multiple n
/// (the conv stages' ohow = 144/400 end in one): single accumulator per
/// row, same identity and the same fmaf-pinned epilogue expression tree.
inline void VnniTile16(Index i, Index rows, Index kg, const uint8_t* ao,
                       Index ldao, const float* sa, const int8_t* tile,
                       const __m512i csum0, const float* sb, Index c0,
                       const float* bias_row, const float* bias_col, float* c,
                       Index ldc) {
  __m512i acc0[kMrQ];
  for (Index r = 0; r < rows; ++r) acc0[r] = _mm512_setzero_si512();
  for (Index g = 0; g < kg; ++g) {
    const __m512i b0 = _mm512_loadu_si512(
        reinterpret_cast<const void*>(tile + g * 16 * kKuQ));
    for (Index r = 0; r < rows; ++r) {
      const __m512i av = _mm512_set1_epi32(
          static_cast<int32_t>(LoadOffsetWord(ao + r * ldao, g)));
      acc0[r] = _mm512_dpbusd_epi32(acc0[r], av, b0);
    }
  }
  const __m512 sb0 = _mm512_loadu_ps(sb + c0);
  const __m512 add0 = bias_col != nullptr ? _mm512_loadu_ps(bias_col + c0)
                                          : _mm512_setzero_ps();
  for (Index r = 0; r < rows; ++r) {
    const __m512i v0 = _mm512_sub_epi32(acc0[r], csum0);
    const __m512 sr = _mm512_set1_ps(sa[i + r]);
    __m512 br = add0;
    if (bias_row != nullptr) {
      br = _mm512_add_ps(br, _mm512_set1_ps(bias_row[i + r]));
    }
    const __m512 f0 =
        _mm512_fmadd_ps(_mm512_mul_ps(sr, sb0), _mm512_cvtepi32_ps(v0), br);
    _mm512_storeu_ps(c + (i + r) * ldc + c0, f0);
  }
}

#endif  // CEWS_INT8_VNNI

}  // namespace

void Int8DotRows(Index i0, Index i1, Index n, Index k, const int8_t* a,
                 Index lda, const float* sa, const int8_t* packed,
                 const float* sb, const float* bias_row,
                 const float* bias_col, float* c, Index ldc) {
  CEWS_CHECK_LE(k, kMaxInt8Depth);
  const Index kg = (k + kKuQ - 1) / kKuQ;
  const Index k4 = kg * kKuQ;
#ifdef CEWS_INT8_VNNI
  // Stage the shard's A rows once as the offset-u8 codes vpdpbusd consumes
  // (a XOR 0x80 == a + 128), k tail padded with 0x80 (= 0 + 128; the
  // matching panel bytes are zero, so tail lanes contribute nothing to the
  // dot or the compensation). Hoisting this out of the tile loop removes a
  // scalar load+xor per row per k-group per tile — work the old inner loop
  // redid for every one of the n/32 tiles.
  const bool use_vnni = n >= kNrQ || n % kNrQ == 16;
  AlignedScopedBytes astage(use_vnni ? (i1 - i0) * k4 : Index{1});
  uint8_t* ao = reinterpret_cast<uint8_t*>(astage.data());
  if (use_vnni) {
    const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
    for (Index i = i0; i < i1; ++i) {
      const int8_t* arow = a + i * lda;
      uint8_t* dst = ao + (i - i0) * k4;
      Index l = 0;
      for (; l + 64 <= k; l += 64) {
        const __m512i v = _mm512_loadu_si512(
            reinterpret_cast<const void*>(arow + l));
        _mm512_storeu_si512(reinterpret_cast<void*>(dst + l),
                            _mm512_xor_si512(v, flip));
      }
      for (; l < k; ++l) dst[l] = static_cast<uint8_t>(arow[l]) ^ 0x80u;
      for (; l < k4; ++l) dst[l] = 0x80u;
    }
  }
#endif  // CEWS_INT8_VNNI
  for (Index c0 = 0; c0 < n; c0 += kNrQ) {
    const Index w = std::min<Index>(kNrQ, n - c0);
    const int8_t* tile = packed + k4 * c0;
    Index i = i0;
#ifdef CEWS_INT8_VNNI
    if (w == kNrQ) {
      // Per-column sums of the tile (incl. the zeroed k tail), scaled by
      // the u8 offset: the compensation the VNNI identity subtracts.
      // vpdpbusd against an all-ones u8 operand sums each column's 4-byte
      // group in one instruction — the scalar walk here cost as much as a
      // full extra output row per shard — and pre-warms the panel for the
      // row loop below.
      const __m512i ones = _mm512_set1_epi8(1);
      __m512i cs0 = _mm512_setzero_si512();
      __m512i cs1 = _mm512_setzero_si512();
      for (Index g = 0; g < kg; ++g) {
        const int8_t* blk = tile + g * kNrQ * kKuQ;
        cs0 = _mm512_dpbusd_epi32(
            cs0, ones, _mm512_loadu_si512(reinterpret_cast<const void*>(blk)));
        cs1 = _mm512_dpbusd_epi32(
            cs1, ones,
            _mm512_loadu_si512(reinterpret_cast<const void*>(blk + 64)));
      }
      const __m512i csum0 = _mm512_slli_epi32(cs0, 7);
      const __m512i csum1 = _mm512_slli_epi32(cs1, 7);
      for (; i + kMrQ <= i1; i += kMrQ) {
        VnniTile(i, kMrQ, kg, ao + (i - i0) * k4, k4, sa, tile, csum0, csum1,
                 sb, c0, bias_row, bias_col, c, ldc);
      }
      if (i < i1) {
        VnniTile(i, i1 - i, kg, ao + (i - i0) * k4, k4, sa, tile, csum0,
                 csum1, sb, c0, bias_row, bias_col, c, ldc);
        i = i1;
      }
    } else if (w == 16) {
      const __m512i ones = _mm512_set1_epi8(1);
      __m512i cs0 = _mm512_setzero_si512();
      for (Index g = 0; g < kg; ++g) {
        cs0 = _mm512_dpbusd_epi32(
            cs0, ones,
            _mm512_loadu_si512(
                reinterpret_cast<const void*>(tile + g * 16 * kKuQ)));
      }
      const __m512i csum0 = _mm512_slli_epi32(cs0, 7);
      for (; i + kMrQ <= i1; i += kMrQ) {
        VnniTile16(i, kMrQ, kg, ao + (i - i0) * k4, k4, sa, tile, csum0, sb,
                   c0, bias_row, bias_col, c, ldc);
      }
      if (i < i1) {
        VnniTile16(i, i1 - i, kg, ao + (i - i0) * k4, k4, sa, tile, csum0,
                   sb, c0, bias_row, bias_col, c, ldc);
        i = i1;
      }
    }
#endif  // CEWS_INT8_VNNI
    // Ragged tiles, and every tile when VNNI is unavailable. Walks the
    // grouped layout directly; the int32 accumulation is exact in both
    // paths and the fp epilogue mirrors the vector expression tree
    // (fma(sr*sb, acc, bias_col + bias_row), fmaf-pinned like the fp32
    // kernels), so the paths agree bit for bit on every element.
    for (; i < i1; ++i) {
      int32_t acc[kNrQ] = {};
      const int8_t* arow = a + i * lda;
      for (Index g = 0; g < kg; ++g) {
        const int8_t* blk = tile + g * w * kKuQ;
        const Index umax = std::min<Index>(kKuQ, k - g * kKuQ);
        for (Index u = 0; u < umax; ++u) {
          const int32_t av = arow[g * kKuQ + u];
          for (Index t = 0; t < w; ++t) {
            acc[t] += av * blk[t * kKuQ + u];
          }
        }
      }
      float* crow = c + i * ldc + c0;
      const float sr = sa[i];
      const float br = bias_row != nullptr ? bias_row[i] : 0.0f;
      for (Index t = 0; t < w; ++t) {
        const float add =
            (bias_col != nullptr ? bias_col[c0 + t] : 0.0f) + br;
        crow[t] =
            std::fmaf(sr * sb[c0 + t], static_cast<float>(acc[t]), add);
      }
    }
  }
}

void Int8GemmPrepacked(Index m, Index n, Index k, const int8_t* a, Index lda,
                       const float* sa, const int8_t* packed, const float* sb,
                       const float* bias_row, const float* bias_col, float* c,
                       Index ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate reduction: the dot is empty, output is pure bias.
    for (Index i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      const float br = bias_row != nullptr ? bias_row[i] : 0.0f;
      for (Index j = 0; j < n; ++j) {
        crow[j] = br + (bias_col != nullptr ? bias_col[j] : 0.0f);
      }
    }
    return;
  }
  ParallelKernel(m, 2 * k * n, [&](Index r0, Index r1) {
    Int8DotRows(r0, r1, n, k, a, lda, sa, packed, sb, bias_row, bias_col, c,
                ldc);
  });
}

}  // namespace cews::nn::gemm
