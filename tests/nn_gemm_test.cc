// Packed GEMM kernels and the steady-state workspace churn of the kernels.
//
// The packed kernels (nn/gemm.h) promise bitwise identity with the retained
// pre-packing reference kernels at any thread count, including ragged
// shapes, degenerate dimensions, transposed A-reads, the register blocks of
// leftover rows, ragged tiles and few-row calls, and row-mapped reductions
// — that contract is what lets ops.cc route every MatMul product through
// them without perturbing the determinism guarantees. The workspace
// promises that steady-state kernel calls never touch the allocator; the
// reuse counters are the proof (the workspace itself is tested in
// nn_workspace_test.cc).
#include "nn/gemm.h"

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

namespace cews::nn {
namespace {

/// Uniform floats in (-1, 1); zero_fraction of the entries are exactly 0.0f
/// to exercise the zero-skip the reference kernels have and the packed
/// kernels dropped.
std::vector<float> RandomData(size_t n, uint64_t seed,
                              double zero_fraction = 0.0) {
  Rng rng(seed);
  std::vector<float> data(n);
  for (float& v : data) {
    if (zero_fraction > 0.0 && rng.Uniform(0.0, 1.0) < zero_fraction) {
      v = 0.0f;
      continue;
    }
    v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return data;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  if (a.empty()) return;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << ctx;
}

struct GemmCase {
  Index m, n, k;
};

std::string CaseName(const GemmCase& c, int threads) {
  return "m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + " threads=" + std::to_string(threads);
}

// Shapes chosen to hit every kernel edge: single elements, single rows and
// columns, exact register-tile multiples (kNr=32, kMr=4), off-by-one around
// them, reductions shorter and longer than kKc=128, empty dimensions, and
// the trainer/serve shapes that dominate production calls.
const GemmCase kEdgeCases[] = {
    {1, 1, 1},    {1, 32, 1},    {1, 1, 129},  {4, 32, 128}, {3, 5, 7},
    {4, 31, 16},  {5, 33, 129},  {7, 64, 130}, {33, 100, 64}, {64, 48, 96},
    {2, 1, 257},  {31, 32, 33},  {1, 257, 4},  {8, 96, 41},  {40, 36, 100},
    {0, 5, 4},    {4, 0, 5},     {2, 3, 0},
};

/// kEdgeCases plus the policy net's products and every block edge of the
/// register paths: rows below kMr (B read in place), around the 16-row lane
/// blocks and the kMr blocks, the ~92 distinct and 250 logical rows of a
/// paper minibatch; columns of the value, charge and move heads, a 16-wide
/// ragged tile and the FC's 256 and 400; the FC's and heads' reductions.
std::vector<GemmCase> Cases() {
  std::vector<GemmCase> cases(std::begin(kEdgeCases), std::end(kEdgeCases));
  for (const Index k : {256, 400}) {
    for (const Index m : {1, 2, 3, 5, 13, 14, 15, 16, 17, 33, 92, 250}) {
      for (const Index n : {1, 2, 4, 16, 34, 256, 400}) {
        cases.push_back({m, n, k});
      }
    }
  }
  return cases;
}

/// Runs `packed` against `want` (the reference result for one case) at
/// pool sizes 0, 1 and 4.
template <typename Fn>
void ExpectAtEveryPoolSize(const std::vector<float>& c0,
                           const std::vector<float>& want, Fn&& packed,
                           const std::string& what, const GemmCase& c) {
  for (const int threads : {0, 1, 4}) {
    runtime::SetGlobalPoolThreads(threads);
    auto got = c0;
    packed(got.data());
    ExpectBitwiseEqual(want, got, what + " " + CaseName(c, threads));
  }
  runtime::SetGlobalPoolThreads(1);
}

TEST(GemmPackedTest, NNBitwiseMatchesReferenceAcrossShapesAndThreads) {
  for (const GemmCase& c : Cases()) {
    const auto a =
        RandomData(static_cast<size_t>(c.m * c.k), 11, /*zeros=*/0.25);
    const auto b = RandomData(static_cast<size_t>(c.k * c.n), 13);
    const auto c0 = RandomData(static_cast<size_t>(c.m * c.n), 17);
    auto want = c0;
    gemm::reference::GemmNN(c.m, c.n, c.k, a.data(), c.k, 1, b.data(), c.n,
                            want.data(), c.n);
    ExpectAtEveryPoolSize(
        c0, want,
        [&](float* got) {
          gemm::GemmNN(c.m, c.n, c.k, a.data(), c.k, 1, b.data(), c.n, got,
                       c.n);
        },
        "NN", c);
  }
}

TEST(GemmPackedTest, NNTransposedAReadMatchesReference) {
  // The dB product reads A transposed (rsa=1, csa=lda); same contract.
  for (const GemmCase& c : Cases()) {
    // A stored k-major: element (i, l) at a[l * m + i].
    const auto a =
        RandomData(static_cast<size_t>(c.m * c.k), 29, /*zeros=*/0.25);
    const auto b = RandomData(static_cast<size_t>(c.k * c.n), 31);
    const auto c0 = RandomData(static_cast<size_t>(c.m * c.n), 37);
    auto want = c0;
    gemm::reference::GemmNN(c.m, c.n, c.k, a.data(), 1, c.m, b.data(), c.n,
                            want.data(), c.n);
    ExpectAtEveryPoolSize(
        c0, want,
        [&](float* got) {
          gemm::GemmNN(c.m, c.n, c.k, a.data(), 1, c.m, b.data(), c.n, got,
                       c.n);
        },
        "NN^T", c);
  }
}

TEST(GemmPackedTest, NTBitwiseMatchesReferenceAcrossShapesAndThreads) {
  for (const GemmCase& c : Cases()) {
    const auto x =
        RandomData(static_cast<size_t>(c.m * c.k), 41, /*zeros=*/0.25);
    const auto y = RandomData(static_cast<size_t>(c.n * c.k), 43);
    const auto c0 = RandomData(static_cast<size_t>(c.m * c.n), 47);
    auto want = c0;
    gemm::reference::GemmNT(c.m, c.n, c.k, x.data(), c.k, y.data(), c.k,
                            want.data(), c.n);
    ExpectAtEveryPoolSize(
        c0, want,
        [&](float* got) {
          gemm::GemmNT(c.m, c.n, c.k, x.data(), c.k, y.data(), c.k, got,
                       c.n);
        },
        "NT", c);
  }
}

TEST(GemmPackedTest, NNRowMapMatchesTheExpandedOperands) {
  // dB over a minibatch's logical rows with operands holding only the
  // distinct rows: step l reads row lrows[l] of A (transposed) and of B.
  Rng rng(53);
  for (const Index logical : {1, 7, 250}) {
    for (const Index distinct : {1, 3, 92}) {
      std::vector<Index> lrows;
      for (Index l = 0; l < logical; ++l) {
        lrows.push_back(l < distinct ? l % distinct
                                     : static_cast<Index>(rng.UniformInt(
                                           static_cast<uint64_t>(distinct))));
      }
      for (const Index m : {1, 3, 5, 17, 256, 400}) {
        for (const Index n : {1, 2, 4, 34, 256}) {
          const GemmCase c{m, n, logical};
          const auto a = RandomData(static_cast<size_t>(distinct * m), 59,
                                    /*zeros=*/0.25);
          const auto b = RandomData(static_cast<size_t>(distinct * n), 61);
          std::vector<float> ae, be;
          for (const Index u : lrows) {
            ae.insert(ae.end(), a.begin() + u * m, a.begin() + (u + 1) * m);
            be.insert(be.end(), b.begin() + u * n, b.begin() + (u + 1) * n);
          }
          const auto c0 = RandomData(static_cast<size_t>(m * n), 67);
          auto want = c0;
          gemm::reference::GemmNN(m, n, logical, ae.data(), 1, m, be.data(),
                                  n, want.data(), n);
          ExpectAtEveryPoolSize(
              c0, want,
              [&](float* got) {
                gemm::GemmNN(m, n, logical, a.data(), 1, m, b.data(), n, got,
                             n, lrows.data());
              },
              "NN^T mapped from " + std::to_string(distinct), c);
        }
      }
    }
  }
}

/// One synthetic "training step" over both hot kernels: MatMul and Conv2d
/// forward + backward, with fresh output/grad/scratch buffers each time.
void KernelStep(Tensor& a, Tensor& b, Tensor& x, Tensor& w, Tensor& bias) {
  Tensor mm = MatMul(a, b);
  Tensor cv = Conv2d(x, w, bias, /*stride=*/1, /*padding=*/1);
  Tensor loss = Add(Mean(Square(mm)), Mean(Square(cv)));
  a.ZeroGrad();
  b.ZeroGrad();
  x.ZeroGrad();
  w.ZeroGrad();
  bias.ZeroGrad();
  loss.Backward();
}

TEST(WorkspaceChurnTest, KernelStepsAreAllocationFreeInSteadyState) {
  // Serial pool: with workers, which thread first claims a chunk (and thus
  // which arena warms up) is nondeterministic; the zero-miss property is
  // per-arena and is asserted where every acquisition lands on one thread.
  runtime::SetGlobalPoolThreads(1);
  Tensor a = Tensor::FromData({16, 48}, RandomData(16 * 48, 3), true);
  Tensor b = Tensor::FromData({48, 24}, RandomData(48 * 24, 5), true);
  Tensor x = Tensor::FromData({2, 3, 10, 10}, RandomData(600, 7), true);
  Tensor w = Tensor::FromData({4, 3, 3, 3}, RandomData(108, 9), true);
  Tensor bias = Tensor::FromData({4}, RandomData(4, 11), true);
  for (int i = 0; i < 3; ++i) KernelStep(a, b, x, w, bias);  // warm the arena
  const Workspace::Stats s0 = Workspace::GlobalStats();
  for (int i = 0; i < 5; ++i) KernelStep(a, b, x, w, bias);
  const Workspace::Stats s1 = Workspace::GlobalStats();
  EXPECT_EQ(s1.misses, s0.misses) << "steady-state step hit the allocator";
  EXPECT_GT(s1.reuse_hits, s0.reuse_hits);
}

}  // namespace
}  // namespace cews::nn
