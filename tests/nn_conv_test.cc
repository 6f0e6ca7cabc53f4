// Bitwise spec of nn::Conv2d (nn/conv.h "Order contract").
//
// Two independent references compute y, dW, db and dX for a grid of
// geometries: a plain loop nest that spells out each element's float
// operation sequence, and the im2col + gemm::reference lowering Conv2d used
// before its direct kernels. The op must match both byte for byte at pool
// sizes 1 and 4, so a training checkpoint cannot move when the kernels
// change.
//
// Inputs carry exact zeros (both signs) in x and the upstream gradient, and
// -0.0f in the bias, where a skipped or reordered zero product would flip a
// sign. Weights have no exact zeros: gemm::reference skips zero weights,
// which the op never does.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace cews::nn {
namespace {

struct Geometry {
  Index n, c, h, w, oc, k;
  int stride, padding;
  bool bias;
  Index oh() const { return (h + 2 * padding - k) / stride + 1; }
  Index ow() const { return (w + 2 * padding - k) / stride + 1; }
  std::string Name() const {
    std::ostringstream os;
    os << "n" << n << " c" << c << " " << h << "x" << w << " oc" << oc << " k"
       << k << " s" << stride << " p" << padding
       << (bias ? " bias" : " nobias");
    return os.str();
  }
};

/// Every (kernel, stride, padding) triple twice; channel counts, batches
/// and odd spatial sizes cycle so each listed value appears as both the
/// input and the output channel count.
std::vector<Geometry> Grid() {
  const Index kernels[] = {1, 3, 5};
  const int strides[] = {1, 2, 3};
  const int paddings[] = {0, 1, 2};
  const Index channels[] = {1, 3, 4, 6, 8, 16, 17};
  const Index batches[] = {1, 3, 17};
  const Index sides[][2] = {{7, 9}, {9, 5}, {11, 7}};
  std::vector<Geometry> grid;
  int i = 0;
  for (Index k : kernels) {
    for (int s : strides) {
      for (int p : paddings) {
        for (int rep = 0; rep < 2; ++rep, ++i) {
          Geometry g;
          g.k = k;
          g.stride = s;
          g.padding = p;
          g.c = channels[i % 7];
          g.oc = channels[(3 * i + 2) % 7];
          g.n = batches[(i / 2) % 3];
          g.h = sides[i % 3][0];
          g.w = sides[i % 3][1];
          g.bias = i % 4 != 3;
          grid.push_back(g);
        }
      }
    }
  }
  return grid;
}

/// Uniform floats in (-1, 1); a fifth of them exactly +0.0f or -0.0f when
/// `zeros`, none exactly zero otherwise.
std::vector<float> Data(Index count, uint64_t seed, bool zeros) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) {
    const double u = rng.Uniform(0.0, 1.0);
    if (zeros && u < 0.1) {
      x = 0.0f;
    } else if (zeros && u < 0.2) {
      x = -0.0f;
    } else {
      x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      if (x == 0.0f) x = 0.5f;
    }
  }
  return v;
}

/// One conv's inputs: two input batches (a recorded pass and a replayed
/// one), weights, bias and the fixed upstream gradient dY of each pass.
struct Inputs {
  std::vector<float> x[2], w, b, dy;
};

Inputs MakeInputs(const Geometry& g, uint64_t seed) {
  Inputs in;
  in.x[0] = Data(g.n * g.c * g.h * g.w, seed, true);
  in.x[1] = Data(g.n * g.c * g.h * g.w, seed + 1, true);
  in.w = Data(g.oc * g.c * g.k * g.k, seed + 2, false);
  if (g.bias) {
    in.b = Data(g.oc, seed + 3, false);
    for (size_t o = 0; o < in.b.size(); o += 3) in.b[o] = -0.0f;
  }
  // The op sees dY through Sum(Mul(y, G)): 0 + 1*G, which turns -0 into +0,
  // so the upstream gradient carries only +0 zeros.
  in.dy = Data(g.n * g.oc * g.oh() * g.ow(), seed + 4, true);
  for (float& v : in.dy) v = v == 0.0f ? 0.0f : v;
  return in;
}

/// y of both passes plus dX, dW, db accumulated over both passes.
struct Result {
  std::vector<float> y[2], dx, dw, db;
};

// ---------------------------------------------------------------------------
// Reference 1: the order contract as a plain loop nest.
// ---------------------------------------------------------------------------

float XAt(const Geometry& g, const float* x, Index n, Index ic, Index iy,
          Index ix) {
  if (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w) return 0.0f;
  return x[((n * g.c + ic) * g.h + iy) * g.w + ix];
}

void PlainPass(const Geometry& g, const Inputs& in, int pass, Result& r) {
  const float* x = in.x[pass].data();
  const float* w = in.w.data();
  const float* dy = in.dy.data();
  const Index oh = g.oh(), ow = g.ow(), k = g.k;
  auto wat = [&](Index o, Index ic, Index ky, Index kx) {
    return w[((o * g.c + ic) * k + ky) * k + kx];
  };
  auto dyat = [&](Index n, Index o, Index oy, Index ox) {
    return dy[((n * g.oc + o) * oh + oy) * ow + ox];
  };
  // y: bias (or +0), then one fmaf per tap in (ic, ky, kx) order.
  std::vector<float>& y = r.y[pass];
  y.assign(static_cast<size_t>(g.n * g.oc * oh * ow), 0.0f);
  for (Index n = 0; n < g.n; ++n) {
    for (Index o = 0; o < g.oc; ++o) {
      for (Index oy = 0; oy < oh; ++oy) {
        for (Index ox = 0; ox < ow; ++ox) {
          float acc = g.bias ? in.b[static_cast<size_t>(o)] : 0.0f;
          for (Index ic = 0; ic < g.c; ++ic) {
            for (Index ky = 0; ky < k; ++ky) {
              for (Index kx = 0; kx < k; ++kx) {
                const float v = XAt(g, x, n, ic, oy * g.stride - g.padding + ky,
                                    ox * g.stride - g.padding + kx);
                acc = std::fmaf(wat(o, ic, ky, kx), v, acc);
              }
            }
          }
          y[static_cast<size_t>(((n * g.oc + o) * oh + oy) * ow + ox)] = acc;
        }
      }
    }
  }
  // dW: per image, a fresh pixel-ordered dot added once; images in order.
  for (Index n = 0; n < g.n; ++n) {
    for (Index o = 0; o < g.oc; ++o) {
      for (Index ic = 0; ic < g.c; ++ic) {
        for (Index ky = 0; ky < k; ++ky) {
          for (Index kx = 0; kx < k; ++kx) {
            float dot = 0.0f;
            for (Index oy = 0; oy < oh; ++oy) {
              for (Index ox = 0; ox < ow; ++ox) {
                const float v = XAt(g, x, n, ic, oy * g.stride - g.padding + ky,
                                    ox * g.stride - g.padding + kx);
                dot = std::fmaf(dyat(n, o, oy, ox), v, dot);
              }
            }
            r.dw[static_cast<size_t>(((o * g.c + ic) * k + ky) * k + kx)] +=
                dot;
          }
        }
      }
    }
  }
  // db: per image, a pixel-ordered sum added once; images in order.
  if (g.bias) {
    for (Index n = 0; n < g.n; ++n) {
      for (Index o = 0; o < g.oc; ++o) {
        float sum = 0.0f;
        for (Index oy = 0; oy < oh; ++oy) {
          for (Index ox = 0; ox < ow; ++ox) sum += dyat(n, o, oy, ox);
        }
        r.db[static_cast<size_t>(o)] += sum;
      }
    }
  }
  // dX: per tap that reads an input pixel, a fresh fmaf chain over output
  // channels, added in (ky, kx) order.
  for (Index n = 0; n < g.n; ++n) {
    for (Index ic = 0; ic < g.c; ++ic) {
      for (Index ky = 0; ky < k; ++ky) {
        for (Index kx = 0; kx < k; ++kx) {
          for (Index oy = 0; oy < oh; ++oy) {
            for (Index ox = 0; ox < ow; ++ox) {
              const Index iy = oy * g.stride - g.padding + ky;
              const Index ix = ox * g.stride - g.padding + kx;
              if (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w) continue;
              float t = 0.0f;
              for (Index o = 0; o < g.oc; ++o) {
                t = std::fmaf(wat(o, ic, ky, kx), dyat(n, o, oy, ox), t);
              }
              r.dx[static_cast<size_t>(((n * g.c + ic) * g.h + iy) * g.w +
                                       ix)] += t;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reference 2: the im2col + gemm::reference lowering.
// ---------------------------------------------------------------------------

/// cols [ck2, ohow] of one image; padding taps are zeros.
void Im2Col(const Geometry& g, const float* img, float* cols) {
  const Index oh = g.oh(), ow = g.ow();
  for (Index ic = 0; ic < g.c; ++ic) {
    for (Index ky = 0; ky < g.k; ++ky) {
      for (Index kx = 0; kx < g.k; ++kx) {
        float* row = cols + ((ic * g.k + ky) * g.k + kx) * oh * ow;
        for (Index oy = 0; oy < oh; ++oy) {
          for (Index ox = 0; ox < ow; ++ox) {
            const Index iy = oy * g.stride - g.padding + ky;
            const Index ix = ox * g.stride - g.padding + kx;
            row[oy * ow + ox] =
                (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w)
                    ? 0.0f
                    : img[(ic * g.h + iy) * g.w + ix];
          }
        }
      }
    }
  }
}

/// The adjoint of Im2Col: img += fold(cols).
void Col2ImAccum(const Geometry& g, const float* cols, float* img) {
  const Index oh = g.oh(), ow = g.ow();
  for (Index ic = 0; ic < g.c; ++ic) {
    for (Index ky = 0; ky < g.k; ++ky) {
      for (Index kx = 0; kx < g.k; ++kx) {
        const float* row = cols + ((ic * g.k + ky) * g.k + kx) * oh * ow;
        for (Index oy = 0; oy < oh; ++oy) {
          for (Index ox = 0; ox < ow; ++ox) {
            const Index iy = oy * g.stride - g.padding + ky;
            const Index ix = ox * g.stride - g.padding + kx;
            if (iy < 0 || iy >= g.h || ix < 0 || ix >= g.w) continue;
            img[(ic * g.h + iy) * g.w + ix] += row[oy * ow + ox];
          }
        }
      }
    }
  }
}

void LoweredPass(const Geometry& g, const Inputs& in, int pass, Result& r) {
  const Index ck2 = g.c * g.k * g.k, ohow = g.oh() * g.ow();
  const float* w = in.w.data();
  std::vector<float>& y = r.y[pass];
  y.assign(static_cast<size_t>(g.n * g.oc * ohow), 0.0f);
  std::vector<float> cols(static_cast<size_t>(ck2 * ohow));
  for (Index n = 0; n < g.n; ++n) {
    Im2Col(g, in.x[pass].data() + n * g.c * g.h * g.w, cols.data());
    float* yn = y.data() + n * g.oc * ohow;
    for (Index o = 0; o < g.oc; ++o) {
      std::fill(yn + o * ohow, yn + (o + 1) * ohow,
                g.bias ? in.b[static_cast<size_t>(o)] : 0.0f);
    }
    gemm::reference::GemmNN(g.oc, ohow, ck2, w, ck2, 1, cols.data(), ohow, yn,
                            ohow);
    const float* dyn = in.dy.data() + n * g.oc * ohow;
    gemm::reference::GemmNT(g.oc, ck2, ohow, dyn, ohow, cols.data(), ohow,
                            r.dw.data(), ck2);
    if (g.bias) {
      for (Index o = 0; o < g.oc; ++o) {
        float sum = 0.0f;
        for (Index q = 0; q < ohow; ++q) sum += dyn[o * ohow + q];
        r.db[static_cast<size_t>(o)] += sum;
      }
    }
    std::vector<float> dcols(static_cast<size_t>(ck2 * ohow), 0.0f);
    gemm::reference::GemmNN(ck2, ohow, g.oc, w, 1, ck2, dyn, ohow,
                            dcols.data(), ohow);
    Col2ImAccum(g, dcols.data(), r.dx.data() + n * g.c * g.h * g.w);
  }
}

template <typename Pass>
Result RunReference(const Geometry& g, const Inputs& in, Pass pass) {
  Result r;
  r.dx.assign(in.x[0].size(), 0.0f);
  r.dw.assign(in.w.size(), 0.0f);
  r.db.assign(in.b.size(), 0.0f);
  pass(g, in, 0, r);
  pass(g, in, 1, r);
  return r;
}

// ---------------------------------------------------------------------------
// The op.
// ---------------------------------------------------------------------------

std::vector<float> Copy(const float* p, Index n) {
  return p == nullptr ? std::vector<float>() : std::vector<float>(p, p + n);
}

Result RunOp(const Geometry& g, const Inputs& in) {
  Tensor x = Tensor::FromData({g.n, g.c, g.h, g.w}, in.x[0], true);
  Tensor w = Tensor::FromData({g.oc, g.c, g.k, g.k}, in.w, true);
  Tensor b = g.bias ? Tensor::FromData({g.oc}, in.b, true) : Tensor();
  Tensor gy = Tensor::FromData({g.n, g.oc, g.oh(), g.ow()}, in.dy);
  Result r;
  for (int pass = 0; pass < 2; ++pass) {
    std::copy(in.x[pass].begin(), in.x[pass].end(), x.data());
    Tensor y = Conv2d(x, w, b, g.stride, g.padding);
    r.y[pass] = Copy(y.data(), y.numel());
    Sum(Mul(y, gy)).Backward();
  }
  r.dx = Copy(x.grad(), x.numel());
  r.dw = Copy(w.grad(), w.numel());
  if (g.bias) r.db = Copy(b.grad(), b.numel());
  return r;
}

void ExpectSameBytes(const std::vector<float>& want,
                     const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  if (want.empty()) return;
  if (std::memcmp(want.data(), got.data(), want.size() * sizeof(float)) == 0) {
    return;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&want[i], &got[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first difference at " << i << " want "
                    << want[i] << " got " << got[i];
      return;
    }
  }
}

void ExpectSameResult(const Result& want, const Result& got,
                      const std::string& what) {
  ExpectSameBytes(want.y[0], got.y[0], what + " y (pass 1)");
  ExpectSameBytes(want.y[1], got.y[1], what + " y (pass 2)");
  ExpectSameBytes(want.dx, got.dx, what + " dX");
  ExpectSameBytes(want.dw, got.dw, what + " dW");
  ExpectSameBytes(want.db, got.db, what + " db");
}

TEST(ConvSpecTest, LoweringFollowsTheOrderContract) {
  uint64_t seed = 1000;
  for (const Geometry& g : Grid()) {
    const Inputs in = MakeInputs(g, seed += 10);
    ExpectSameResult(RunReference(g, in, PlainPass),
                     RunReference(g, in, LoweredPass), g.Name());
  }
}

class ConvOpSpecTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { runtime::SetGlobalPoolThreads(1); }
};

TEST_P(ConvOpSpecTest, MatchesReferenceBitwise) {
  runtime::SetGlobalPoolThreads(GetParam());
  uint64_t seed = 1000;
  for (const Geometry& g : Grid()) {
    const Inputs in = MakeInputs(g, seed += 10);
    ExpectSameResult(RunReference(g, in, PlainPass), RunOp(g, in), g.Name());
  }
}

INSTANTIATE_TEST_SUITE_P(Pool, ConvOpSpecTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Pool" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cews::nn
