// Compiled expression graphs (nn/graph.h): replay correctness against the
// tape (bitwise), constant-subgraph memoization, static arena planning,
// steady-state zero workspace churn, gradient checkpointing, and the
// double-backward / forward-only guard rails.
#include "nn/graph.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/workspace.h"
#include "obs/metrics.h"

namespace cews::nn {
namespace {

std::vector<float> RandVec(size_t n, Rng& rng, float lo = -1.0f,
                           float hi = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  return v;
}

/// A small MLP exercising MatMul, AddBias, LayerNormRelu, LogSoftmax,
/// GatherLastDim (shared index handle), Concat and the reductions.
struct MlpParams {
  Tensor w1, b1, gamma, beta, w2;

  static MlpParams Make(Index in, Index hidden, Index classes, uint64_t seed) {
    Rng rng(seed);
    MlpParams p;
    p.w1 = Tensor::FromData({in, hidden},
                            RandVec(static_cast<size_t>(in * hidden), rng),
                            /*requires_grad=*/true);
    p.b1 = Tensor::FromData({hidden}, RandVec(static_cast<size_t>(hidden), rng),
                            true);
    p.gamma = Tensor::FromData(
        {hidden}, RandVec(static_cast<size_t>(hidden), rng, 0.5f, 1.5f), true);
    p.beta = Tensor::FromData({hidden},
                              RandVec(static_cast<size_t>(hidden), rng), true);
    p.w2 = Tensor::FromData(
        {hidden, classes}, RandVec(static_cast<size_t>(hidden * classes), rng),
        true);
    return p;
  }

  std::vector<Tensor> All() const { return {w1, b1, gamma, beta, w2}; }
};

Tensor MlpLoss(const MlpParams& p, const Tensor& x,
               std::shared_ptr<const std::vector<Index>> idx) {
  Tensor h = AddBias(MatMul(x, p.w1), p.b1);
  h = LayerNormReluOp(h, p.gamma, p.beta);
  Tensor lp = LogSoftmax(MatMul(h, p.w2));
  Tensor picked = GatherLastDim(lp, std::move(idx));
  // Concat keeps a second consumer of `picked` alive through the planner.
  Tensor both = Concat(Reshape(picked, {picked.numel(), 1}),
                       Reshape(picked, {picked.numel(), 1}));
  return Add(Neg(Mean(picked)), MulScalar(Mean(Square(both)), 0.25f));
}

/// A 3-block conv chain with checkpoint markers after the first two ReLUs —
/// the cnn_trunk shape in miniature.
struct ConvParams {
  Tensor w1, b1, w2, b2, w3, b3;

  static ConvParams Make(uint64_t seed) {
    Rng rng(seed);
    ConvParams p;
    auto t = [&](const Shape& s, float scale) {
      std::vector<float> v =
          RandVec(static_cast<size_t>(NumElements(s)), rng, -scale, scale);
      return Tensor::FromData(s, std::move(v), true);
    };
    p.w1 = t({4, 2, 3, 3}, 0.4f);
    p.b1 = t({4}, 0.2f);
    p.w2 = t({4, 4, 3, 3}, 0.3f);
    p.b2 = t({4}, 0.2f);
    p.w3 = t({2, 4, 3, 3}, 0.3f);
    p.b3 = t({2}, 0.2f);
    return p;
  }

  std::vector<Tensor> All() const { return {w1, b1, w2, b2, w3, b3}; }
};

Tensor ConvLoss(const ConvParams& p, const Tensor& x) {
  Tensor h = Conv2d(x, p.w1, p.b1, 1, 1);
  h = Checkpoint(Relu(h));
  h = Conv2d(h, p.w2, p.b2, 1, 1);
  h = Checkpoint(Relu(h));
  h = Conv2d(h, p.w3, p.b3, 1, 1);
  return Mean(Square(Relu(h)));
}

std::vector<std::vector<float>> Grads(const std::vector<Tensor>& params) {
  std::vector<std::vector<float>> out;
  for (const Tensor& t : params) {
    EXPECT_NE(t.grad(), nullptr);
    if (t.grad() == nullptr) {
      out.emplace_back();
      continue;
    }
    out.emplace_back(t.grad(), t.grad() + t.numel());
  }
  return out;
}

TEST(GraphTest, ReplayMatchesTapeBitwise) {
  const Index kB = 3, kIn = 6, kH = 8, kC = 5;
  Rng data_rng(100);
  // Three batches: the first is recorded, the rest replayed.
  std::vector<std::vector<float>> batches;
  std::vector<std::vector<Index>> indices;
  for (int it = 0; it < 3; ++it) {
    batches.push_back(RandVec(static_cast<size_t>(kB * kIn), data_rng));
    std::vector<Index> idx;
    for (Index i = 0; i < kB; ++i) {
      idx.push_back(static_cast<Index>(data_rng.UniformInt(kC)));
    }
    indices.push_back(std::move(idx));
  }

  // Tape reference: fresh graph per batch, grads accumulate across batches.
  MlpParams tape = MlpParams::Make(kIn, kH, kC, 7);
  std::vector<float> tape_losses;
  for (int it = 0; it < 3; ++it) {
    Tensor x = Tensor::FromData({kB, kIn}, batches[static_cast<size_t>(it)]);
    Tensor loss = MlpLoss(
        tape, x,
        std::make_shared<const std::vector<Index>>(
            indices[static_cast<size_t>(it)]));
    tape_losses.push_back(loss.item());
    loss.Backward();
  }

  // Graph: record batch 0, replay batches 1-2 through rewritten
  // placeholders and the shared index handle.
  MlpParams gp = MlpParams::Make(kIn, kH, kC, 7);
  Tensor x = Tensor::FromData({kB, kIn}, batches[0]);
  auto idx = std::make_shared<std::vector<Index>>(indices[0]);
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = MlpLoss(gp, x, idx);
  graph::GraphPtr g = graph::EndRecording(loss);
  ASSERT_TRUE(g != nullptr);
  EXPECT_GT(g->num_steps(), 10);

  for (int it = 0; it < 3; ++it) {
    if (it > 0) {
      const std::vector<float>& b = batches[static_cast<size_t>(it)];
      std::copy(b.begin(), b.end(), x.data());
      *idx = indices[static_cast<size_t>(it)];
      g->Forward();
    }
    EXPECT_EQ(loss.item(), tape_losses[static_cast<size_t>(it)])
        << "replay " << it;
    loss.Backward();
  }

  const auto want = Grads(tape.All());
  const auto got = Grads(gp.All());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size());
    for (size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(want[i][j], got[i][j]) << "param " << i << " elem " << j;
    }
  }
}

TEST(GraphTest, MemoizesConstantSubgraphs) {
  Rng rng(8);
  Tensor c = Tensor::FromData({4}, RandVec(4, rng));
  Tensor x = Tensor::FromData({4}, RandVec(4, rng));
  Tensor w = Tensor::FromData({4}, RandVec(4, rng), true);
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  // Softmax(Exp(c)) is pure-constant: both steps must run once and never
  // replay. The x and w paths must not be memoized.
  Tensor konst = Softmax(Exp(c));
  Tensor loss = Sum(Mul(Add(x, konst), w));
  graph::GraphPtr g = graph::EndRecording(loss);
  EXPECT_EQ(g->num_memoized(), 2);

  // Replays still see the constant's value.
  Rng rng2(9);
  std::vector<float> x2 = RandVec(4, rng2);
  std::copy(x2.begin(), x2.end(), x.data());
  g->Forward();

  Tensor x_ref = Tensor::FromData({4}, x2);
  Tensor ref = Sum(Mul(Add(x_ref, Softmax(Exp(c))), w.Clone()));
  EXPECT_EQ(loss.item(), ref.item());
}

TEST(GraphTest, PlansArenaAndReportsMetrics) {
  const uint64_t plan0 = obs::SnapshotMetrics().CounterValue("nn.graph.plan_bytes");
  MlpParams p = MlpParams::Make(6, 32, 5, 3);
  Rng rng(4);
  Tensor x = Tensor::FromData({4, 6}, RandVec(24, rng));
  auto idx = std::make_shared<const std::vector<Index>>(
      std::vector<Index>{0, 1, 2, 3});
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = MlpLoss(p, x, idx);
  graph::GraphPtr g = graph::EndRecording(loss);

  EXPECT_GT(g->arena_bytes(), 0);
  // Root output is pinned resident.
  EXPECT_GT(g->persistent_bytes(), 0);
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_GE(snap.CounterValue("nn.graph.plan_bytes") - plan0,
            static_cast<uint64_t>(g->arena_bytes()));
  EXPECT_GE(snap.GaugeValue("nn.graph.peak_arena_bytes"),
            static_cast<double>(g->arena_bytes()));
}

TEST(GraphTest, SteadyStateReplayHasZeroWorkspaceChurn) {
  // The churn guard of the issue: a warmed-up graph training step must not
  // touch the workspace buckets at all — every intermediate and every
  // kernel scratch lives at a planned arena offset.
  ConvParams p = ConvParams::Make(11);
  Rng rng(12);
  const Shape xshape{2, 2, 6, 6};
  Tensor x = Tensor::FromData(
      xshape, RandVec(static_cast<size_t>(NumElements(xshape)), rng));
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = ConvLoss(p, x);
  graph::GraphPtr g = graph::EndRecording(loss);

  // Warm-up: first backward allocates interior grad buffers.
  for (int it = 0; it < 2; ++it) {
    std::vector<float> nx =
        RandVec(static_cast<size_t>(NumElements(xshape)), rng);
    std::copy(nx.begin(), nx.end(), x.data());
    g->Forward();
    loss.Backward();
  }

  std::vector<float> nx = RandVec(static_cast<size_t>(NumElements(xshape)), rng);
  const Workspace::Stats before = Workspace::GlobalStats();
  std::copy(nx.begin(), nx.end(), x.data());
  g->Forward();
  loss.Backward();
  const Workspace::Stats after = Workspace::GlobalStats();
  EXPECT_EQ(after.reuse_hits - before.reuse_hits, 0u);
  EXPECT_EQ(after.misses - before.misses, 0u);
}

TEST(GraphTest, CheckpointingIsBitwiseAndShrinksArena) {
  Rng rng(21);
  const Shape xshape{2, 2, 8, 8};
  std::vector<std::vector<float>> batches;
  for (int it = 0; it < 3; ++it) {
    batches.push_back(RandVec(static_cast<size_t>(NumElements(xshape)), rng));
  }

  auto run = [&](bool ckpt) {
    setenv("CEWS_NN_CKPT", ckpt ? "1" : "0", 1);
    ConvParams p = ConvParams::Make(33);
    Tensor x = Tensor::FromData(xshape, batches[0]);
    graph::BeginRecording();
    graph::MarkPlaceholder(x);
    Tensor loss = ConvLoss(p, x);
    graph::GraphPtr g = graph::EndRecording(loss);
    EXPECT_EQ(g->checkpointing(), ckpt);
    if (ckpt) {
      EXPECT_GE(g->num_segments(), 3);
    }
    std::vector<float> losses;
    for (int it = 0; it < 3; ++it) {
      if (it > 0) {
        std::copy(batches[static_cast<size_t>(it)].begin(),
                  batches[static_cast<size_t>(it)].end(), x.data());
        g->Forward();
      }
      losses.push_back(loss.item());
      loss.Backward();
    }
    struct Result {
      std::vector<float> losses;
      std::vector<std::vector<float>> grads;
      Index arena = 0;
    } r;
    r.losses = std::move(losses);
    r.grads = Grads(p.All());
    r.arena = g->arena_bytes();
    return r;
  };

  const uint64_t recompute0 =
      obs::SnapshotMetrics().CounterValue("nn.graph.recompute_ns");
  const auto off = run(false);
  const auto on = run(true);
  unsetenv("CEWS_NN_CKPT");

  ASSERT_EQ(off.losses.size(), on.losses.size());
  for (size_t i = 0; i < off.losses.size(); ++i) {
    EXPECT_EQ(off.losses[i], on.losses[i]);
  }
  ASSERT_EQ(off.grads.size(), on.grads.size());
  for (size_t i = 0; i < off.grads.size(); ++i) {
    ASSERT_EQ(off.grads[i].size(), on.grads[i].size());
    for (size_t j = 0; j < off.grads[i].size(); ++j) {
      EXPECT_EQ(off.grads[i][j], on.grads[i][j])
          << "param " << i << " elem " << j;
    }
  }
  // Dropping the two checkpointed conv-block activation sets must shrink
  // the planned arena.
  EXPECT_LT(on.arena, off.arena);
  // Recompute time was recorded.
  EXPECT_GT(obs::SnapshotMetrics().CounterValue("nn.graph.recompute_ns"),
            recompute0);
}

TEST(GraphDeathTest, DoubleBackwardOnGraphRootDies) {
  MlpParams p = MlpParams::Make(4, 6, 3, 5);
  Rng rng(6);
  Tensor x = Tensor::FromData({2, 4}, RandVec(8, rng));
  auto idx =
      std::make_shared<const std::vector<Index>>(std::vector<Index>{0, 2});
  graph::BeginRecording();
  graph::MarkPlaceholder(x);
  Tensor loss = MlpLoss(p, x, idx);
  graph::GraphPtr g = graph::EndRecording(loss);
  loss.Backward();
  EXPECT_DEATH(loss.Backward(), "double Backward");
  // A fresh Forward re-arms it.
  g->Forward();
  loss.Backward();
}

TEST(GraphDeathTest, ForwardOnlyGraphRefusesBackward) {
  Rng rng(7);
  Tensor w = Tensor::FromData({4, 4}, RandVec(16, rng));
  Tensor x = Tensor::FromData({2, 4}, RandVec(8, rng));
  graph::GraphPtr g;
  Tensor y;
  {
    NoGradGuard no_grad;
    graph::BeginRecording();
    graph::MarkPlaceholder(x);
    y = Softmax(MatMul(x, w));
    graph::Retain(y);
    g = graph::EndRecording(Tensor());
  }

  // Replay matches an eager no-grad forward bitwise.
  std::vector<float> x2 = RandVec(8, rng);
  std::copy(x2.begin(), x2.end(), x.data());
  g->Forward();
  std::vector<float> ref;
  {
    NoGradGuard no_grad;
    ref = Softmax(MatMul(Tensor::FromData({2, 4}, x2), w)).ToVector();
  }
  for (Index i = 0; i < y.numel(); ++i) {
    EXPECT_EQ(y.data()[i], ref[static_cast<size_t>(i)]);
  }
  EXPECT_DEATH(g->Backward(), "forward-only");
}

TEST(GraphTest, AbandonRecordingLeavesTapeTensorsValid) {
  Rng rng(9);
  Tensor w = Tensor::FromData({3}, RandVec(3, rng), true);
  graph::BeginRecording();
  Tensor y = Sum(Square(w));
  graph::AbandonRecording();
  EXPECT_FALSE(graph::Recording());
  y.Backward();
  ASSERT_NE(w.grad(), nullptr);
  for (Index i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(w.grad()[i], 2.0f * w.data()[i]);
  }
}

}  // namespace
}  // namespace cews::nn
