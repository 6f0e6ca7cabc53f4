// Bitwise spec of nn::LayerNormReluOp (nn/layer_norm.h "Order contract").
//
// A plain loop nest computes LayerNorm followed by ReLU, and ReLU's backward
// followed by LayerNorm's, with each multiply-add written as the contract's
// std::fma/std::fmaf. The op must match its y, dx, dgamma and dbeta byte for
// byte, eagerly and under a graph recording with a replay, for feature
// counts on and off a multiple of 8 (54, 216 and 576 are the CLI net's
// widths) and batches on both sides of an 8-row group.
//
// Inputs carry ±0 in x, beta and the upstream gradient, rows of one
// constant value (variance 0), rows of signed zeros, and zeros in gamma.
// Every gradient starts from a nonzero value that the op must add onto, and
// a second pass on new x accumulates onto the first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/graph.h"
#include "nn/layer_norm.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace cews::nn {
namespace {

constexpr float kEps = 1e-5f;

struct Case {
  Index n, f;
  std::string Name() const {
    std::ostringstream os;
    os << "n" << n << " f" << f;
    return os.str();
  }
};

std::vector<Case> Grid() {
  std::vector<Case> grid;
  for (Index f : {1, 5, 54, 216, 400, 576, 1600, 3200}) {
    for (Index n : {1, 7, 8, 9, 17, 250}) grid.push_back({n, f});
  }
  return grid;
}

struct Inputs {
  std::vector<float> x[2];  // one per pass
  std::vector<float> gamma, beta, dy;
  std::vector<float> dx0, dgamma0, dbeta0;  // the gradients before pass 1
};

/// Uniform values in [lo, hi], with +0 at every 7th and -0 at every 11th
/// element when `zeros` is set.
std::vector<float> Fill(Index count, Rng& rng, float lo, float hi,
                        bool zeros) {
  std::vector<float> v(static_cast<size_t>(count));
  for (Index i = 0; i < count; ++i) {
    float val = static_cast<float>(rng.Uniform(lo, hi));
    if (zeros && i % 7 == 3) val = 0.0f;
    if (zeros && i % 11 == 5) val = -0.0f;
    v[static_cast<size_t>(i)] = val;
  }
  return v;
}

Inputs MakeInputs(const Case& c, uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  for (int pass = 0; pass < 2; ++pass) {
    in.x[pass] = Fill(c.n * c.f, rng, -2.0f, 2.0f, /*zeros=*/true);
    for (Index i = 0; i < c.n; ++i) {
      float* row = in.x[pass].data() + i * c.f;
      if (i % 5 == 1) std::fill(row, row + c.f, pass == 0 ? 0.75f : -1.25f);
      if (i % 5 == 3) {
        for (Index j = 0; j < c.f; ++j) row[j] = j % 2 == 0 ? 0.0f : -0.0f;
      }
    }
  }
  in.gamma = Fill(c.f, rng, -1.5f, 1.5f, /*zeros=*/true);
  in.beta = Fill(c.f, rng, -0.5f, 0.5f, /*zeros=*/true);
  in.dy = Fill(c.n * c.f, rng, -1.0f, 1.0f, /*zeros=*/true);
  in.dx0 = Fill(c.n * c.f, rng, -1.0f, 1.0f, /*zeros=*/false);
  in.dgamma0 = Fill(c.f, rng, -1.0f, 1.0f, /*zeros=*/false);
  in.dbeta0 = Fill(c.f, rng, -1.0f, 1.0f, /*zeros=*/false);
  return in;
}

struct Result {
  std::vector<float> y[2];
  std::vector<float> dx, dgamma, dbeta;
};

// ---------------------------------------------------------------------------
// The plain reference: LayerNorm, then ReLU, as separate loop nests.
// ---------------------------------------------------------------------------

void ReferencePass(const Case& c, const Inputs& in, int pass, Result& r) {
  const Index n = c.n, f = c.f;
  const float* x = in.x[pass].data();
  std::vector<float> pre(static_cast<size_t>(n * f)),
      xh(static_cast<size_t>(n * f)), is(static_cast<size_t>(n));
  r.y[pass].assign(static_cast<size_t>(n * f), 0.0f);
  for (Index i = 0; i < n; ++i) {
    const float* row = x + i * f;
    double mu = 0.0;
    for (Index j = 0; j < f; ++j) mu += static_cast<double>(row[j]);
    mu /= static_cast<double>(f);
    double var = 0.0;
    for (Index j = 0; j < f; ++j) {
      const double d = static_cast<double>(row[j]) - mu;
      var = std::fma(d, d, var);
    }
    var /= static_cast<double>(f);
    is[static_cast<size_t>(i)] =
        1.0f / std::sqrt(static_cast<float>(var) + kEps);
    for (Index j = 0; j < f; ++j) {
      const size_t k = static_cast<size_t>(i * f + j);
      xh[k] = (row[j] - static_cast<float>(mu)) * is[static_cast<size_t>(i)];
      pre[k] = std::fmaf(xh[k], in.gamma[static_cast<size_t>(j)],
                         in.beta[static_cast<size_t>(j)]);
    }
  }
  for (size_t k = 0; k < pre.size(); ++k) {
    r.y[pass][k] = pre[k] > 0.0f ? pre[k] : 0.0f;
  }

  // ReLU's backward onto LayerNorm's fresh output gradient. The upstream
  // gradient is what Sum(Mul(y, dy)) hands the op: 0 + 1 * dy.
  std::vector<float> g(pre.size());
  for (size_t k = 0; k < pre.size(); ++k) {
    const float up = 0.0f + 1.0f * in.dy[k];
    g[k] = 0.0f + up * (pre[k] > 0.0f ? 1.0f : 0.0f);
  }
  // LayerNorm's backward, row by row.
  for (Index i = 0; i < n; ++i) {
    const float* gr = g.data() + i * f;
    const float* xr = xh.data() + i * f;
    for (Index j = 0; j < f; ++j) {
      float& dg = r.dgamma[static_cast<size_t>(j)];
      dg = std::fmaf(gr[j], xr[j], dg);
      r.dbeta[static_cast<size_t>(j)] += gr[j];
    }
    double sg = 0.0, sgx = 0.0;
    for (Index j = 0; j < f; ++j) {
      const double gj = static_cast<double>(gr[j]) *
                        static_cast<double>(in.gamma[static_cast<size_t>(j)]);
      sg += gj;
      sgx = std::fma(gj, static_cast<double>(xr[j]), sgx);
    }
    const double mg = sg / static_cast<double>(f);
    const double mgx = sgx / static_cast<double>(f);
    for (Index j = 0; j < f; ++j) {
      const double gj = static_cast<double>(gr[j]) *
                        static_cast<double>(in.gamma[static_cast<size_t>(j)]);
      r.dx[static_cast<size_t>(i * f + j)] += static_cast<float>(
          std::fma(-static_cast<double>(xr[j]), mgx, gj - mg) *
          static_cast<double>(is[static_cast<size_t>(i)]));
    }
  }
}

Result RunReference(const Case& c, const Inputs& in) {
  Result r;
  r.dx = in.dx0;
  r.dgamma = in.dgamma0;
  r.dbeta = in.dbeta0;
  ReferencePass(c, in, 0, r);
  ReferencePass(c, in, 1, r);
  return r;
}

// ---------------------------------------------------------------------------
// The op, eagerly or recorded + replayed.
// ---------------------------------------------------------------------------

/// Which op inputs require grad; the others are constants.
struct Needs {
  bool x = true, gamma = true, beta = true;
};

Tensor Leaf(const Shape& shape, const std::vector<float>& data,
            const std::vector<float>& grad, bool needs_grad) {
  Tensor t = Tensor::FromData(shape, data, needs_grad);
  if (needs_grad) {
    t.ZeroGrad();
    std::copy(grad.begin(), grad.end(), t.grad());
  }
  return t;
}

std::vector<float> Copy(const float* p, Index n) {
  return std::vector<float>(p, p + n);
}

Result RunOp(const Case& c, const Inputs& in, bool graph_mode,
             Needs needs = {}) {
  Tensor x = Leaf({c.n, c.f}, in.x[0], in.dx0, needs.x);
  Tensor gamma = Leaf({c.f}, in.gamma, in.dgamma0, needs.gamma);
  Tensor beta = Leaf({c.f}, in.beta, in.dbeta0, needs.beta);
  Tensor gy = Tensor::FromData({c.n, c.f}, in.dy);
  Result r;
  if (graph_mode) {
    graph::BeginRecording();
    graph::MarkPlaceholder(x);
    Tensor y = LayerNormReluOp(x, gamma, beta);
    graph::Retain(y);
    Tensor loss = Sum(Mul(y, gy));
    graph::GraphPtr compiled = graph::EndRecording(loss);
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) {
        std::copy(in.x[1].begin(), in.x[1].end(), x.data());
        compiled->Forward();
      }
      r.y[pass] = Copy(y.data(), y.numel());
      loss.Backward();
    }
  } else {
    for (int pass = 0; pass < 2; ++pass) {
      std::copy(in.x[pass].begin(), in.x[pass].end(), x.data());
      Tensor y = LayerNormReluOp(x, gamma, beta);
      r.y[pass] = Copy(y.data(), y.numel());
      Sum(Mul(y, gy)).Backward();
    }
  }
  if (needs.x) r.dx = Copy(x.grad(), x.numel());
  if (needs.gamma) r.dgamma = Copy(gamma.grad(), gamma.numel());
  if (needs.beta) r.dbeta = Copy(beta.grad(), beta.numel());
  return r;
}

void ExpectSameBytes(const std::vector<float>& want,
                     const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
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
                      const std::string& what, Needs needs = {}) {
  ExpectSameBytes(want.y[0], got.y[0], what + " y (pass 1)");
  ExpectSameBytes(want.y[1], got.y[1], what + " y (pass 2)");
  if (needs.x) ExpectSameBytes(want.dx, got.dx, what + " dx");
  if (needs.gamma) ExpectSameBytes(want.dgamma, got.dgamma, what + " dgamma");
  if (needs.beta) ExpectSameBytes(want.dbeta, got.dbeta, what + " dbeta");
}

class LayerNormReluSpecTest : public ::testing::TestWithParam<bool> {};

TEST_P(LayerNormReluSpecTest, MatchesReferenceBitwise) {
  uint64_t seed = 2000;
  for (const Case& c : Grid()) {
    const Inputs in = MakeInputs(c, seed += 10);
    ExpectSameResult(RunReference(c, in), RunOp(c, in, GetParam()), c.Name());
  }
}

INSTANTIATE_TEST_SUITE_P(Mode, LayerNormReluSpecTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Graph" : "Tape";
                         });

TEST(LayerNormReluSpecTest, PartialGradientsMatchReference) {
  // Constant inputs get no gradient; the ones that require grad keep the
  // reference bytes (a frozen x is the first block's case, constant
  // gamma/beta a probe's).
  const Needs combos[] = {{false, true, true}, {true, false, false},
                          {false, false, true}, {true, true, false}};
  uint64_t seed = 3000;
  for (const Needs& needs : combos) {
    for (const Case& c : {Case{9, 54}, Case{17, 5}, Case{8, 216}}) {
      const Inputs in = MakeInputs(c, seed += 10);
      for (bool graph_mode : {false, true}) {
        ExpectSameResult(RunReference(c, in),
                         RunOp(c, in, graph_mode, needs),
                         c.Name() + (graph_mode ? " graph" : " tape"), needs);
      }
    }
  }
}

TEST(LayerNormReluSpecTest, NoGradForwardMatchesReference) {
  // Serving runs the op under NoGradGuard: same forward bytes, no closure.
  const Case c{9, 54};
  const Inputs in = MakeInputs(c, 77);
  const Result want = RunReference(c, in);
  NoGradGuard no_grad;
  Tensor x = Tensor::FromData({c.n, c.f}, in.x[0], /*requires_grad=*/true);
  Tensor gamma = Tensor::FromData({c.f}, in.gamma, true);
  Tensor beta = Tensor::FromData({c.f}, in.beta, true);
  Tensor y = LayerNormReluOp(x, gamma, beta);
  EXPECT_FALSE(y.requires_grad());
  ExpectSameBytes(want.y[0], Copy(y.data(), y.numel()), c.Name() + " y");
}

TEST(LayerNormReluSpecTest, InPlaceKernelForwardMatchesReference) {
  // The int8 serving forward normalizes its conv outputs in place.
  for (const Case& c : Grid()) {
    const Inputs in = MakeInputs(c, 91);
    const Result want = RunReference(c, in);
    std::vector<float> xy = in.x[0];
    std::vector<float> stats(static_cast<size_t>(layer_norm::StatsFloats(c.n)));
    layer_norm::Forward(c.n, c.f, kEps, xy.data(), in.gamma.data(),
                        in.beta.data(), stats.data(), xy.data());
    ExpectSameBytes(want.y[0], xy, c.Name() + " in-place y");
  }
}

TEST(LayerNormReluSpecTest, ReportsKernelCounters) {
  const obs::MetricsSnapshot before = obs::SnapshotMetrics();
  const Case c{9, 54};
  const Inputs in = MakeInputs(c, 78);
  RunOp(c, in, /*graph_mode=*/false);
  const obs::MetricsSnapshot after = obs::SnapshotMetrics();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  const uint64_t elems = static_cast<uint64_t>(c.n * c.f);
  EXPECT_EQ(delta("nn.layer_norm.calls"), 2u);
  EXPECT_EQ(delta("nn.layer_norm.fwd_flops"), 2 * 8 * elems);
  EXPECT_EQ(delta("nn.layer_norm.bwd_flops"), 2 * 16 * elems);
  EXPECT_GT(delta("nn.layer_norm.fwd_ns"), 0u);
  EXPECT_GT(delta("nn.layer_norm.bwd_ns"), 0u);
}

}  // namespace
}  // namespace cews::nn
