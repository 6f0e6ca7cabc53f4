#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "nn/gemm.h"
#include "nn/transpose.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define CEWS_CONV_AVX2 1
#if defined(__AVX512F__)
#define CEWS_CONV_AVX512 1
#endif
#endif

namespace cews::nn::conv {

namespace {

using detail::Transpose;
using gemm::ParallelKernel;

// ---------------------------------------------------------------------------
// Lane types. Each is a fixed number of float lanes with one-rounding fma
// and plain add, so every lane runs the same operation sequence as a scalar
// std::fmaf loop; the vector kinds exist only for speed. A build without
// AVX2+FMA gets the scalar lanes, whose results are the same bytes.
// ---------------------------------------------------------------------------

struct ScalarLanes {
  static constexpr int W = 4;
  static constexpr Index kWidth = W;
  struct V {
    float f[W];
  };
  static V Zero() { return V{}; }
  static V Load(const float* p) {
    V v;
    std::memcpy(v.f, p, sizeof(v.f));
    return v;
  }
  static void Store(float* p, const V& v) { std::memcpy(p, v.f, sizeof(v.f)); }
  static V Set1(float s) {
    V v;
    for (int i = 0; i < W; ++i) v.f[i] = s;
    return v;
  }
  static V Fma(const V& a, const V& b, V c) {
    for (int i = 0; i < W; ++i) c.f[i] = std::fmaf(a.f[i], b.f[i], c.f[i]);
    return c;
  }
  static V Add(V a, const V& b) {
    for (int i = 0; i < W; ++i) a.f[i] += b.f[i];
    return a;
  }
};

#ifdef CEWS_CONV_AVX2
struct Lanes8 {
  static constexpr Index kWidth = 8;
  using V = __m256;
  static V Zero() { return _mm256_setzero_ps(); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V Set1(float s) { return _mm256_set1_ps(s); }
  static V Fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V Add(V a, V b) { return _mm256_add_ps(a, b); }
};
#endif

#ifdef CEWS_CONV_AVX512
struct Lanes16 {
  static constexpr Index kWidth = 16;
  using V = __m512;
  static V Zero() { return _mm512_setzero_ps(); }
  static V Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static V Set1(float s) { return _mm512_set1_ps(s); }
  static V Fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static V Add(V a, V b) { return _mm512_add_ps(a, b); }
};
#endif

/// Calls fn(L{}) with the lane type that vectorises `count` channels: 16
/// lanes when AVX-512 is built in and the count exceeds 8, else 8 lanes
/// (AVX2), else 4 scalar lanes.
template <typename Fn>
decltype(auto) WithLanes(Index count, Fn&& fn) {
#if defined(CEWS_CONV_AVX512)
  if (count > 8) return fn(Lanes16{});
  return fn(Lanes8{});
#elif defined(CEWS_CONV_AVX2)
  (void)count;
  return fn(Lanes8{});
#else
  (void)count;
  return fn(ScalarLanes{});
#endif
}

Index PaddedCount(Index count) {
  const Index lanes =
      WithLanes(count, [](auto l) { return decltype(l)::kWidth; });
  return (count + lanes - 1) / lanes * lanes;
}

/// Pixels (y, dX) or taps (dW) a micro-kernel keeps in flight: independent
/// fma chains enough to cover fma latency at two issues per cycle. Taps go
/// nine at a time, one 3x3 kernel's worth, so 3x3 convs waste no chain.
constexpr int kPixelBlock = 8;
constexpr int kTapBlock = 9;

// ---------------------------------------------------------------------------
// Forward.
// ---------------------------------------------------------------------------

/// Copies one [c, h, w] image into the interior of its [c, hp, wp] padded
/// slot and zeroes the border.
void PadImage(const Plan& s, const float* img, float* xp) {
  std::fill(xp, xp + s.c * s.hp * s.wp, 0.0f);
  for (Index ic = 0; ic < s.c; ++ic) {
    for (Index iy = 0; iy < s.h; ++iy) {
      std::copy_n(img + (ic * s.h + iy) * s.w, s.w,
                  xp + (ic * s.hp + iy + s.padding) * s.wp + s.padding);
    }
  }
}

/// y lanes [g*W, g*W + W) of output pixels q0 .. q0+count (count <=
/// kPixelBlock) of one image. `wf` is the [ck2 + 1][ocp] transposed weight
/// whose last row is the bias. Entries past `count` repeat the last pixel
/// and are dropped.
template <typename L>
void ForwardPixels(const Plan& s, const float* wf, const float* xp, Index g,
                   Index q0, Index count, float* y) {
  using V = typename L::V;
  const Index ck2 = s.ck2(), lane0 = g * L::kWidth;
  const float* wg = wf + lane0;
  const Index* taps = s.taps.data();
  V acc[kPixelBlock];
  const float* px[kPixelBlock];
  for (int b = 0; b < kPixelBlock; ++b) {
    acc[b] = L::Load(wg + ck2 * s.ocp);
    px[b] = xp + s.pixels[q0 + std::min<Index>(b, count - 1)];
  }
  for (Index l = 0; l < ck2; ++l) {
    const V wv = L::Load(wg + l * s.ocp);
    const Index tap = taps[l];
    for (int b = 0; b < kPixelBlock; ++b) {
      acc[b] = L::Fma(wv, L::Set1(px[b][tap]), acc[b]);
    }
  }
  float tile[kPixelBlock][L::kWidth];
  for (int b = 0; b < kPixelBlock; ++b) L::Store(tile[b], acc[b]);
  Transpose(tile[0], L::kWidth, count, std::min<Index>(L::kWidth, s.oc - lane0),
            y + lane0 * s.ohow() + q0, s.ohow());
}

template <typename L>
void ForwardImpl(const Plan& s, const float* x, const float* w,
                 const float* bias, float* xpad, float* wf, float* y) {
  const Index ck2 = s.ck2(), ohow = s.ohow();
  for (Index l = 0; l <= ck2; ++l) {
    float* row = wf + l * s.ocp;
    for (Index o = 0; o < s.oc; ++o) {
      row[o] = l < ck2 ? w[o * ck2 + l] : (bias != nullptr ? bias[o] : 0.0f);
    }
    std::fill(row + s.oc, row + s.ocp, 0.0f);
  }
  const Index img_in = s.c * s.h * s.w, img_pad = s.c * s.hp * s.wp;
  ParallelKernel(s.n, 2 * s.oc * ck2 * ohow, [&](Index n0, Index n1) {
    for (Index i = n0; i < n1; ++i) {
      float* xp = xpad + i * img_pad;
      PadImage(s, x + i * img_in, xp);
      float* yi = y + i * s.oc * ohow;
      for (Index g = 0; g * L::kWidth < s.oc; ++g) {
        for (Index q = 0; q < ohow; q += kPixelBlock) {
          ForwardPixels<L>(s, wf, xp, g, q,
                           std::min<Index>(kPixelBlock, ohow - q), yi);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Weight and bias gradients.
// ---------------------------------------------------------------------------

/// dW lanes [g*W, g*W + W) of taps l0 .. l0+count (count <= kTapBlock) from
/// one image: each lane's dot over the pixels starts at +0 and is added to
/// dW once. `dyt` is the image's [ohow][ocp] transposed output gradient.
/// `kept` (laid out like dW; null when the image is read once) also
/// receives the dots, for the image's later logical repeats. Entries past
/// `count` repeat the last tap and are dropped.
template <typename L>
void WeightGradTaps(const Plan& s, const float* xp, const float* dyt, Index g,
                    Index l0, Index count, float* kept, float* dw) {
  using V = typename L::V;
  const Index lane0 = g * L::kWidth;
  V acc[kTapBlock];
  const float* xt[kTapBlock];
  for (int b = 0; b < kTapBlock; ++b) {
    acc[b] = L::Zero();
    xt[b] = xp + s.taps[l0 + std::min<Index>(b, count - 1)];
  }
  const float* dyg = dyt + lane0;
  for (Index q = 0; q < s.ohow(); ++q) {
    const V d = L::Load(dyg + q * s.ocp);
    const Index at = s.pixels[q];
    for (int b = 0; b < kTapBlock; ++b) {
      acc[b] = L::Fma(d, L::Set1(xt[b][at]), acc[b]);
    }
  }
  float tile[kTapBlock][L::kWidth];
  for (int b = 0; b < kTapBlock; ++b) L::Store(tile[b], acc[b]);
  const Index lanes = std::min<Index>(L::kWidth, s.oc - lane0);
  for (Index j = 0; j < lanes; ++j) {
    const Index at = (lane0 + j) * s.ck2() + l0;
    for (Index b = 0; b < count; ++b) dw[at + b] += tile[b][j];
    if (kept == nullptr) continue;
    for (Index b = 0; b < count; ++b) kept[at + b] = tile[b][j];
  }
}

template <typename L>
void WeightGradImpl(const Plan& s, const float* xpad, const float* dy,
                    float* dw, float* db, float* scratch) {
  using V = typename L::V;
  const Index ohow = s.ohow(), ocp = s.ocp, ck2 = s.ck2();
  float* dyt = scratch;                      // [n][ohow][ocp]
  float* sums = scratch + s.n * ohow * ocp;  // [n][ocp] per-image db
  float* dots = sums + s.n * ocp;            // [kept][oc][ck2] kept dW dots
  // Channel-minor dY per distinct image (pad lanes zero) and its pixel
  // sums.
  ParallelKernel(s.n, 2 * s.oc * ohow, [&](Index n0, Index n1) {
    for (Index i = n0; i < n1; ++i) {
      float* t = dyt + i * ohow * ocp;
      Transpose(dy + i * s.oc * ohow, ohow, s.oc, ohow, t, ocp);
      if (ocp > s.oc) {
        for (Index q = 0; q < ohow; ++q) {
          std::fill(t + q * ocp + s.oc, t + (q + 1) * ocp, 0.0f);
        }
      }
      if (db == nullptr) continue;
      for (Index lane0 = 0; lane0 < s.oc; lane0 += L::kWidth) {
        V sum = L::Zero();
        for (Index q = 0; q < ohow; ++q) {
          sum = L::Add(sum, L::Load(t + q * ocp + lane0));
        }
        L::Store(sums + i * ocp + lane0, sum);
      }
    }
  });
  if (db != nullptr) {
    for (const Index u : s.rows) {
      for (Index o = 0; o < s.oc; ++o) db[o] += sums[u * ocp + o];
    }
  }
  if (dw == nullptr) return;
  // Partitioned over taps: each dW element has one owner, which adds the
  // logical images' dots in logical order. A distinct image's dots are
  // computed where it first occurs (rows number distinct images by first
  // occurrence) and kept for its repeats, which add the kept dots again.
  const Index img_pad = s.c * s.hp * s.wp;
  ParallelKernel(ck2, 2 * s.n * ohow * ocp, [&](Index l0, Index l1) {
    Index fresh = 0;
    for (const Index u : s.rows) {
      float* kept = s.keep[u] < 0 ? nullptr : dots + s.keep[u] * s.oc * ck2;
      if (u < fresh) {
        for (Index o = 0; o < s.oc; ++o) {
          for (Index l = l0; l < l1; ++l) dw[o * ck2 + l] += kept[o * ck2 + l];
        }
        continue;
      }
      ++fresh;
      for (Index g = 0; g * L::kWidth < s.oc; ++g) {
        for (Index l = l0; l < l1; l += kTapBlock) {
          WeightGradTaps<L>(s, xpad + u * img_pad, dyt + u * ohow * ocp, g, l,
                            std::min<Index>(kTapBlock, l1 - l), kept, dw);
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Input gradient.
// ---------------------------------------------------------------------------

/// Adds tap (ky, kx)'s contribution to dX lanes [g*W, g*W + W) for output
/// pixels q0 .. q0+count (count <= kPixelBlock) of one image: a fresh fmaf
/// chain over output channels per pixel, added to the channel-minor padded
/// dX at `at` (already offset to the tap). `wtap` is the tap's [oc][cp]
/// weights.
template <typename L>
void InputGradPixels(const Plan& s, const float* wtap, const float* dyi,
                     Index g, Index q0, Index count, float* at) {
  using V = typename L::V;
  const Index lane0 = g * L::kWidth, ohow = s.ohow();
  V acc[kPixelBlock];
  Index q[kPixelBlock];
  for (int b = 0; b < kPixelBlock; ++b) {
    acc[b] = L::Zero();
    q[b] = q0 + std::min<Index>(b, count - 1);
  }
  for (Index o = 0; o < s.oc; ++o) {
    const V wv = L::Load(wtap + o * s.cp + lane0);
    const float* d = dyi + o * ohow;
    for (int b = 0; b < kPixelBlock; ++b) {
      acc[b] = L::Fma(wv, L::Set1(d[q[b]]), acc[b]);
    }
  }
  for (Index b = 0; b < count; ++b) {
    float* a = at + s.pixels[q[b]] * s.cp + lane0;
    L::Store(a, L::Add(L::Load(a), acc[b]));
  }
}

template <typename L>
void InputGradImpl(const Plan& s, const float* w, const float* dy, float* dx,
                   float* scratch) {
  const Index ntaps = s.kh * s.kw, ohow = s.ohow(), cp = s.cp;
  const Index plane = s.hp * s.wp;
  float* wt = scratch;                         // [kh*kw][oc][cp]
  float* dxt = scratch + ntaps * s.oc * cp;    // [n][hp*wp][cp]
  for (Index tap = 0; tap < ntaps; ++tap) {
    for (Index o = 0; o < s.oc; ++o) {
      float* row = wt + (tap * s.oc + o) * cp;
      for (Index ic = 0; ic < s.c; ++ic) {
        row[ic] = w[(o * s.c + ic) * ntaps + tap];
      }
      std::fill(row + s.c, row + cp, 0.0f);
    }
  }
  ParallelKernel(s.n, 2 * s.oc * s.ck2() * ohow, [&](Index n0, Index n1) {
    for (Index i = n0; i < n1; ++i) {
      // dX rides in a channel-minor padded copy: the interior starts as
      // the existing gradient, and the border only collects taps that land
      // on padding, which are dropped on the way back.
      float* acc = dxt + i * plane * cp;
      float* gx = dx + i * s.c * s.h * s.w;
      std::fill(acc, acc + plane * cp, 0.0f);
      const Index hw = s.h * s.w;
      for (Index iy = 0; iy < s.h; ++iy) {
        Transpose(gx + iy * s.w, hw, s.c, s.w,
                  acc + ((iy + s.padding) * s.wp + s.padding) * cp, cp);
      }
      const float* dyi = dy + i * s.oc * ohow;
      for (Index tap = 0; tap < ntaps; ++tap) {
        const Index toff = ((tap / s.kw) * s.wp + tap % s.kw) * cp;
        for (Index g = 0; g * L::kWidth < s.c; ++g) {
          for (Index q = 0; q < ohow; q += kPixelBlock) {
            InputGradPixels<L>(s, wt + tap * s.oc * cp, dyi, g, q,
                               std::min<Index>(kPixelBlock, ohow - q),
                               acc + toff);
          }
        }
      }
      for (Index iy = 0; iy < s.h; ++iy) {
        Transpose(acc + ((iy + s.padding) * s.wp + s.padding) * cp, cp, s.w,
                  s.c, gx + iy * s.w, hw);
      }
    }
  });
}

}  // namespace

Plan::Plan(Index n_, Index c_, Index h_, Index w_, Index oc_, Index kh_,
           Index kw_, int stride_, int padding_,
           const std::vector<Index>* rows_)
    : n(n_), c(c_), h(h_), w(w_), oc(oc_), kh(kh_), kw(kw_), stride(stride_),
      padding(padding_) {
  if (rows_ != nullptr) {
    rows = *rows_;
  } else {
    rows.resize(static_cast<size_t>(n));
    std::iota(rows.begin(), rows.end(), Index{0});
  }
  // Every distinct image is numbered where it first occurs; an image read
  // more than once gets a slot for its kept dots.
  std::vector<Index> reads(static_cast<size_t>(n), 0);
  Index fresh = 0;
  for (const Index u : rows) {
    CEWS_CHECK_GE(u, 0);
    CEWS_CHECK_LE(u, fresh) << "conv::Plan: rows must number distinct images "
                               "by first occurrence";
    CEWS_CHECK_LT(u, n);
    if (u == fresh) ++fresh;
    ++reads[u];
  }
  CEWS_CHECK_EQ(fresh, n) << "conv::Plan: a distinct image no row reads";
  keep.assign(static_cast<size_t>(n), -1);
  for (Index u = 0; u < n; ++u) {
    if (reads[u] > 1) keep[u] = kept++;
  }
  oh = (h + 2 * padding - kh) / stride + 1;
  ow = (w + 2 * padding - kw) / stride + 1;
  hp = h + 2 * padding;
  wp = w + 2 * padding;
  ocp = PaddedCount(oc);
  cp = PaddedCount(c);
  pixels.reserve(static_cast<size_t>(ohow()));
  for (Index oy = 0; oy < oh; ++oy) {
    for (Index ox = 0; ox < ow; ++ox) {
      pixels.push_back(oy * stride * wp + ox * stride);
    }
  }
  taps.reserve(static_cast<size_t>(ck2()));
  for (Index ic = 0; ic < c; ++ic) {
    for (Index ky = 0; ky < kh; ++ky) {
      for (Index kx = 0; kx < kw; ++kx) {
        taps.push_back((ic * hp + ky) * wp + kx);
      }
    }
  }
}

void Forward(const Plan& p, const float* x, const float* w, const float* bias,
             float* xpad, float* scratch, float* y) {
  WithLanes(p.oc, [&](auto l) {
    ForwardImpl<decltype(l)>(p, x, w, bias, xpad, scratch, y);
  });
}

void WeightGrad(const Plan& p, const float* xpad, const float* dy, float* dw,
                float* db, float* scratch) {
  WithLanes(p.oc, [&](auto l) {
    WeightGradImpl<decltype(l)>(p, xpad, dy, dw, db, scratch);
  });
}

void InputGrad(const Plan& p, const float* w, const float* dy, float* dx,
               float* scratch) {
  WithLanes(p.c, [&](auto l) {
    InputGradImpl<decltype(l)>(p, w, dy, dx, scratch);
  });
}

}  // namespace cews::nn::conv
