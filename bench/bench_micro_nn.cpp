// Micro-benchmarks of the neural-network substrate (google-benchmark).
//
// The matmul/conv benchmarks sweep the intra-op thread count (second arg)
// so one run reports single- vs multi-thread kernel throughput; compare the
// items_per_second column across `threads` values. Kernel results are
// bitwise-identical at every thread count (see nn_parallel_determinism_test),
// so the sweep measures scheduling only.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "agents/policy_net.h"
#include "agents/ppo.h"
#include "agents/quant_policy.h"
#include "bench/bench_util.h"
#include "common/env_flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"
#include "nn/gemm_int8.h"
#include "nn/quant.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/params.h"
#include "nn/workspace.h"
#include "obs/metrics.h"

namespace {

using namespace cews;

/// Sizes the global pool for one benchmark run and restores the serial
/// default on destruction so unrelated benchmarks stay single-threaded.
class PoolGuard {
 public:
  explicit PoolGuard(benchmark::State& state, int arg_index = 1)
      : threads_(static_cast<int>(state.range(arg_index))) {
    runtime::SetGlobalPoolThreads(threads_);
  }
  ~PoolGuard() { runtime::SetGlobalPoolThreads(1); }
  int threads() const { return threads_; }

 private:
  int threads_;
};

void BM_MatMul(benchmark::State& state) {
  const nn::Index n = state.range(0);
  PoolGuard pool(state);
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Zeros({n, n});
  nn::Tensor b = nn::Tensor::Zeros({n, n});
  for (nn::Index i = 0; i < a.numel(); ++i) {
    a.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
    b.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{32, 128, 256}, {1, 2, 4}});

void BM_MatMulBackward(benchmark::State& state) {
  const nn::Index n = state.range(0);
  PoolGuard pool(state);
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Zeros({n, n}, /*requires_grad=*/true);
  nn::Tensor b = nn::Tensor::Zeros({n, n}, /*requires_grad=*/true);
  for (nn::Index i = 0; i < a.numel(); ++i) {
    a.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
    b.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    nn::Tensor loss = nn::Mean(nn::MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 3 * n * n * n);
}
BENCHMARK(BM_MatMulBackward)
    ->ArgNames({"n", "threads"})
    ->ArgsProduct({{128, 256}, {1, 2, 4}});

void BM_Conv2dForward(benchmark::State& state) {
  const nn::Index g = state.range(0);
  PoolGuard pool(state);
  Rng rng(2);
  nn::Conv2dLayer conv(3, 8, 3, 1, 1, rng);
  // A training-shaped batch: intra-op kernels partition over images and
  // output channels, so a batch > 1 exposes the parallel axis.
  nn::Tensor x = nn::Tensor::Zeros({8, 3, g, g});
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 8 * g * g);
}
BENCHMARK(BM_Conv2dForward)
    ->ArgNames({"g", "threads"})
    ->ArgsProduct({{12, 20, 32}, {1, 2, 4}});

void BM_Conv2dForwardBackward(benchmark::State& state) {
  const nn::Index g = state.range(0);
  PoolGuard pool(state);
  Rng rng(3);
  nn::Conv2dLayer conv(3, 8, 3, 1, 1, rng);
  nn::Tensor x = nn::Tensor::Zeros({8, 3, g, g});
  for (auto _ : state) {
    conv.ZeroGrad();
    nn::Tensor loss = nn::Mean(nn::Square(conv.Forward(x)));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * 8 * g * g);
}
BENCHMARK(BM_Conv2dForwardBackward)
    ->ArgNames({"g", "threads"})
    ->ArgsProduct({{12, 20}, {1, 2, 4}});

void BM_SoftmaxLastDim(benchmark::State& state) {
  Rng rng(4);
  nn::Tensor x = nn::Tensor::Zeros({64, 17});
  for (nn::Index i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(-2, 2));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::Softmax(x));
  }
}
BENCHMARK(BM_SoftmaxLastDim);

void BM_LayerNormRelu(benchmark::State& state) {
  Rng rng(5);
  nn::LayerNormRelu ln(512);
  nn::Tensor x = nn::Tensor::Zeros({16, 512});
  for (nn::Index i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(-2, 2));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ln.Forward(x));
  }
}
BENCHMARK(BM_LayerNormRelu);

agents::PolicyNetConfig BenchNet(int grid) {
  agents::PolicyNetConfig config;
  config.grid = grid;
  config.num_workers = 2;
  config.num_moves = 17;
  config.conv1_channels = 6;
  config.conv2_channels = 8;
  config.conv3_channels = 8;
  config.feature_dim = 128;
  return config;
}

void BM_PolicyNetForward(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  Rng rng(6);
  agents::PolicyNet net(BenchNet(grid), rng);
  nn::Tensor x = nn::Tensor::Zeros({1, 3, grid, grid});
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x));
  }
}
BENCHMARK(BM_PolicyNetForward)->Arg(12)->Arg(20);

// The acting forward of the paper net (grid 20, conv 8/16/16, FC 400->256,
// heads 34/4/1) on one state: what every rollout step of train_paper pays.
void BM_PolicyNetForwardPaper(benchmark::State& state) {
  Rng rng(6);
  agents::PolicyNet net(agents::PolicyNetConfig{}, rng);
  const agents::PolicyNetConfig& cfg = net.config();
  nn::Tensor x = nn::Tensor::Zeros({1, cfg.in_channels, cfg.grid, cfg.grid});
  for (nn::Index i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(0, 1));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x));
  }
}
BENCHMARK(BM_PolicyNetForwardPaper)->Unit(benchmark::kMicrosecond);

// The vectorized acting path's inference shape: one Forward over a
// [batch, C, g, g] stack of per-env states. items_per_second counts env
// states, so dividing by BM_PolicyNetForward's rate gives the per-state
// amortization from batching (tape/dispatch overhead is paid once per
// batch instead of once per state).
void BM_PolicyNetForwardBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  PoolGuard pool(state);
  const int grid = 12;
  Rng rng(6);
  agents::PolicyNet net(BenchNet(grid), rng);
  nn::Tensor x = nn::Tensor::Zeros({batch, 3, grid, grid});
  for (nn::Index i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(0, 1));
  }
  nn::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PolicyNetForwardBatch)
    ->ArgNames({"batch", "threads"})
    ->ArgsProduct({{1, 4, 8, 16}, {1, 2}});

/// Fills a buffer with `steps` on-policy transitions from `agent`, on
/// uniform random states of the agent's net.
agents::RolloutBuffer FillPpoBuffer(agents::PpoAgent& agent, int steps) {
  Rng rng(8);
  agents::RolloutBuffer buffer;
  const agents::PolicyNetConfig& net = agent.net().config();
  std::vector<float> state(
      static_cast<size_t>(net.in_channels * net.grid * net.grid));
  for (int t = 0; t < steps; ++t) {
    for (float& v : state) v = static_cast<float>(rng.Uniform(0, 1));
    const agents::ActResult act = agent.Act(state, rng);
    agents::Transition tr;
    tr.state = state;
    tr.moves = act.moves;
    tr.charges = act.charges;
    tr.log_prob = act.log_prob;
    tr.value = act.value;
    tr.reward = 1.0f;
    tr.done = t + 1 == steps;
    buffer.Add(std::move(tr));
  }
  buffer.ComputeAdvantages(0.99f, 0.95f, 0.0f);
  return buffer;
}

void BM_PpoLossBackward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  PoolGuard pool(state);
  const agents::PolicyNetConfig net_config = BenchNet(12);
  agents::PpoAgent agent(net_config, agents::PpoConfig{}, 7);
  agents::RolloutBuffer buffer = FillPpoBuffer(agent, batch);
  std::vector<size_t> idx;
  for (int i = 0; i < batch; ++i) idx.push_back(static_cast<size_t>(i));
  for (auto _ : state) {
    nn::ZeroGradients(agent.Parameters());
    // Gather + packed loss, exactly the trainer's per-epoch hot path.
    nn::Tensor loss = agent.ComputeLoss(buffer.GatherBatch(idx));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PpoLossBackward)
    ->ArgNames({"batch", "threads"})
    ->ArgsProduct({{16, 64}, {1, 2, 4}});

// The paper's update shape: the paper net (grid 20, conv 8/16/16, FC 256)
// and Table II's minibatch of 250 drawn by SampleBatch from one 100-step
// episode, so about 92 of its rows are distinct transitions. rows:0 keeps
// the minibatch's buffer indices, and ComputeLoss runs the trunk once per
// distinct transition (nn/ops.h "RowMap"); rows:1 clears them, and the
// trunk runs every row. Both give the same gradient bits. matmul_fwd_ms and
// matmul_bwd_ms are the nn.matmul.{fwd,bwd}_ns counters per update: the
// FC's and heads' share of the time.
void BM_PpoLossBackwardPaper(benchmark::State& state) {
  PoolGuard pool(state, /*arg_index=*/0);
  const bool every_row = state.range(1) != 0;
  agents::PpoAgent agent(agents::PolicyNetConfig{}, agents::PpoConfig{}, 7);
  const agents::RolloutBuffer buffer = FillPpoBuffer(agent, 100);
  Rng rng(9);
  int64_t distinct = 0;
  const auto matmul_ns = [] {
    const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
    return std::pair<uint64_t, uint64_t>{
        snap.CounterValue("nn.matmul.fwd_ns"),
        snap.CounterValue("nn.matmul.bwd_ns")};
  };
  const auto ns0 = matmul_ns();
  for (auto _ : state) {
    state.PauseTiming();
    agents::MiniBatch mb = buffer.SampleBatch(250, rng);
    distinct += static_cast<int64_t>(
        nn::RowMap::Number(mb.indices)->distinct());
    if (every_row) mb.indices.clear();
    nn::ZeroGradients(agent.Parameters());
    state.ResumeTiming();
    nn::Tensor loss = agent.ComputeLoss(std::move(mb));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  const auto ns1 = matmul_ns();
  const double per_update_ms = 1e-6 / static_cast<double>(state.iterations());
  state.counters["distinct_share"] =
      static_cast<double>(distinct) / (250.0 * state.iterations());
  state.counters["matmul_fwd_ms"] =
      static_cast<double>(ns1.first - ns0.first) * per_update_ms;
  state.counters["matmul_bwd_ms"] =
      static_cast<double>(ns1.second - ns0.second) * per_update_ms;
  state.SetItemsProcessed(state.iterations() * 250);
}
BENCHMARK(BM_PpoLossBackwardPaper)
    ->ArgNames({"threads", "rows"})
    ->ArgsProduct({{1, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(9);
  nn::Mlp mlp({256, 256, 64}, nn::Activation::kRelu, rng);
  nn::Adam adam(mlp.Parameters(), 1e-3f);
  for (nn::Tensor p : mlp.Parameters()) p.ZeroGrad();
  for (auto _ : state) {
    adam.Step();
  }
}
BENCHMARK(BM_AdamStep);

// ---------------------------------------------------------------------------
// Raw GEMM kernel benchmarks: packed kernels vs the retained scalar
// reference. Serial on purpose — the acceptance metric for the packed
// kernels is single-thread GFLOP/s (thread scaling is BM_MatMul's job).
// items_per_second is FLOPs (2mnk per product), i.e. FLOP/s.

std::vector<float> RandomBuffer(nn::Index n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1, 1));
  return v;
}

void BM_GemmNN(benchmark::State& state) {
  const nn::Index n = state.range(0);
  const bool packed = state.range(1) != 0;
  const std::vector<float> a = RandomBuffer(n * n, 11);
  const std::vector<float> b = RandomBuffer(n * n, 12);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  for (auto _ : state) {
    if (packed) {
      nn::gemm::GemmNN(n, n, n, a.data(), n, 1, b.data(), n, c.data(), n);
    } else {
      nn::gemm::reference::GemmNN(n, n, n, a.data(), n, 1, b.data(), n,
                                  c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)
    ->ArgNames({"n", "packed"})
    ->ArgsProduct({{64, 256}, {0, 1}});

void BM_GemmNT(benchmark::State& state) {
  const nn::Index n = state.range(0);
  const bool packed = state.range(1) != 0;
  const std::vector<float> x = RandomBuffer(n * n, 13);
  const std::vector<float> y = RandomBuffer(n * n, 14);
  std::vector<float> c(static_cast<size_t>(n * n), 0.0f);
  for (auto _ : state) {
    if (packed) {
      nn::gemm::GemmNT(n, n, n, x.data(), n, y.data(), n, c.data(), n);
    } else {
      nn::gemm::reference::GemmNT(n, n, n, x.data(), n, y.data(), n, c.data(),
                                  n);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNT)
    ->ArgNames({"n", "packed"})
    ->ArgsProduct({{64, 256}, {0, 1}});

// The paper net's FC (400->256) and heads (256->34 moves, 256->4 charges,
// 256->1 value) as the GEMM layer runs them, at m = 1 (acting), 14 (a
// serve_control batch), 92 (the distinct rows of a paper minibatch) and 250
// (all of its rows): product 0 is the forward C = X·W, 1 is dX = dY·Wᵀ
// (NT), 2 is dW = Xᵀ·dY (NN with A read transposed). Serial;
// items_per_second is FLOP/s.
void BM_GemmPolicyShapes(benchmark::State& state) {
  static constexpr nn::Index kIn[] = {400, 256, 256, 256};
  static constexpr nn::Index kOut[] = {256, 34, 4, 1};
  const nn::Index in = kIn[state.range(0)], out = kOut[state.range(0)];
  const nn::Index m = state.range(1);
  const int product = static_cast<int>(state.range(2));
  const std::vector<float> x = RandomBuffer(m * in, 15);
  const std::vector<float> w = RandomBuffer(in * out, 16);
  const std::vector<float> dy = RandomBuffer(m * out, 17);
  std::vector<float> c(static_cast<size_t>(std::max(m, in) * out + m * in),
                       0.0f);
  for (auto _ : state) {
    if (product == 0) {
      nn::gemm::GemmNN(m, out, in, x.data(), in, 1, w.data(), out, c.data(),
                       out);
    } else if (product == 1) {
      nn::gemm::GemmNT(m, in, out, dy.data(), out, w.data(), out, c.data(),
                       in);
    } else {
      nn::gemm::GemmNN(in, out, m, x.data(), 1, in, dy.data(), out, c.data(),
                       out);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * in * out);
}
BENCHMARK(BM_GemmPolicyShapes)
    ->ArgNames({"layer", "m", "product"})
    ->ArgsProduct({{0, 1, 2, 3}, {1, 14, 92, 250}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// CEWS_BENCH_KERNELS=1 kernel sweep: times packed vs reference kernels on
// the trainer + serve GEMM shapes and prints one [kernels] line per shape
// with the per-kernel speedup. Runs single-threaded, and also reports
// workspace misses per iteration for the packed kernels (0 in steady state:
// all transient buffers come from the recycling arena).

struct KernelShape {
  const char* name;   // what the shape is in the training/serving pipeline
  const char* kind;   // "NN" or "NT"
  nn::Index m, n, k;
};

/// Seconds per iteration of `fn`, auto-scaling reps until the measured
/// window is long enough to trust (>= 0.1 s).
double TimePerIter(const std::function<void()>& fn) {
  fn();  // warm up: faults pages, fills the workspace arena
  long reps = 1;
  for (;;) {
    Stopwatch sw;
    for (long i = 0; i < reps; ++i) fn();
    const double s = sw.ElapsedSeconds();
    if (s >= 0.1 || reps >= (1L << 24)) return s / static_cast<double>(reps);
    reps = (s < 0.01) ? reps * 10
                      : static_cast<long>(static_cast<double>(reps) *
                                          (0.15 / s)) +
                            1;
  }
}

void RunKernelSweep() {
  using nn::gemm::GemmNN;
  using nn::gemm::GemmNT;
  runtime::SetGlobalPoolThreads(1);

  // Trainer shapes: PPO minibatch 64 through the policy net's trunk FC and
  // heads and their backward products (the convs run direct kernels, no
  // GEMM). Serve shapes: the micro-batcher's batch-16 inference. Large
  // squares are the headline cache-blocking case.
  const KernelShape kShapes[] = {
      {"square_256", "NN", 256, 256, 256},
      {"square_256", "NT", 256, 256, 256},
      {"trunk_fc_fwd_b64", "NN", 64, 128, 1152},
      {"trunk_fc_dA_b64", "NT", 64, 1152, 128},
      {"trunk_fc_dW_b64", "NN", 1152, 128, 64},
      {"head_fwd_b64", "NN", 64, 34, 128},
      {"serve_fc_fwd_b16", "NN", 16, 128, 1152},
  };

  for (const KernelShape& s : kShapes) {
    const bool nt = std::string(s.kind) == "NT";
    const std::vector<float> a = RandomBuffer(s.m * s.k, 21);
    const std::vector<float> b =
        RandomBuffer(nt ? s.n * s.k : s.k * s.n, 22);
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
    const auto run_packed = [&] {
      if (nt) {
        GemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, c.data(), s.n);
      } else {
        GemmNN(s.m, s.n, s.k, a.data(), s.k, 1, b.data(), s.n, c.data(), s.n);
      }
    };
    const auto run_ref = [&] {
      if (nt) {
        nn::gemm::reference::GemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(),
                                    s.k, c.data(), s.n);
      } else {
        nn::gemm::reference::GemmNN(s.m, s.n, s.k, a.data(), s.k, 1, b.data(),
                                    s.n, c.data(), s.n);
      }
    };

    const double ref_s = TimePerIter(run_ref);
    const double packed_s = TimePerIter(run_packed);

    // Steady-state workspace traffic of the packed kernel (arena is warm
    // after TimePerIter): misses must be 0, hits >= 1 per iteration.
    const nn::Workspace::Stats before = nn::Workspace::GlobalStats();
    constexpr int kProbeIters = 16;
    for (int i = 0; i < kProbeIters; ++i) run_packed();
    const nn::Workspace::Stats after = nn::Workspace::GlobalStats();
    const double misses_per_iter =
        static_cast<double>(after.misses - before.misses) / kProbeIters;

    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    const double ref_gflops = flops / ref_s * 1e-9;
    const double packed_gflops = flops / packed_s * 1e-9;
    std::printf("[kernels] %-18s %s m=%lld n=%lld k=%lld  ref %.2f GF/s  "
                "packed %.2f GF/s  speedup %.2fx  misses/iter %.2f\n",
                s.name, s.kind, static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                ref_gflops, packed_gflops,
                packed_s > 0 ? ref_s / packed_s : 0.0, misses_per_iter);
  }
  // --- Int8 serve path vs fp32 ---
  // FC rows: each side is timed with its true per-request cost — the fp32
  // product repacks its B panel every call (GemmNN's pack step), the int8
  // one quantizes its activation rows every call against a weight panel
  // quantized and packed once at publish, with the bias epilogue fused.
  // Forward rows: the whole serving forward of the paper's net,
  // PolicyNet::Forward against QuantPolicyForward, at serving batch sizes.
  struct Int8Shape {
    const char* name;
    nn::Index m, n, k;
  };
  const Int8Shape kInt8Shapes[] = {
      {"serve_fc_fwd_b16", 16, 128, 1152},
      {"serve_fc_fwd_b64", 64, 128, 1152},
  };
  for (const Int8Shape& s : kInt8Shapes) {
    const std::vector<float> a = RandomBuffer(s.m * s.k, 31);
    const std::vector<float> b = RandomBuffer(s.k * s.n, 32);
    const std::vector<float> bias = RandomBuffer(s.n, 33);
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);

    const auto run_fp32 = [&] {
      nn::gemm::GemmNN(s.m, s.n, s.k, a.data(), s.k, 1, b.data(), s.n,
                       c.data(), s.n);
    };

    // Publish-time: gather B's columns into channel-major rows, quantize
    // per output channel, pack the panel.
    std::vector<int8_t> wq(static_cast<size_t>(s.n * s.k));
    std::vector<float> sb(static_cast<size_t>(s.n));
    std::vector<float> bt(static_cast<size_t>(s.n * s.k));
    for (nn::Index j = 0; j < s.n; ++j) {
      for (nn::Index l = 0; l < s.k; ++l) bt[j * s.k + l] = b[l * s.n + j];
    }
    nn::gemm::QuantizeRowsInt8(s.n, s.k, bt.data(), s.k, wq.data(), sb.data());
    nn::quant::AlignedInt8Buffer packed(nn::gemm::Int8PanelBytes(s.k, s.n));
    nn::gemm::PackInt8NT(s.k, s.n, wq.data(), s.k, packed.data());
    // Request-time: per-row activation quantization + prepacked GEMM.
    std::vector<int8_t> aq(static_cast<size_t>(s.m * s.k));
    std::vector<float> sa(static_cast<size_t>(s.m));
    const double int8_s = TimePerIter([&] {
      nn::gemm::QuantizeRowsInt8(s.m, s.k, a.data(), s.k, aq.data(),
                                 sa.data());
      nn::gemm::Int8GemmPrepacked(s.m, s.n, s.k, aq.data(), s.k, sa.data(),
                                  packed.data(), sb.data(), nullptr,
                                  bias.data(), c.data(), s.n);
    });
    const double fp32_s = TimePerIter(run_fp32);

    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    const double fp32_gflops = flops / fp32_s * 1e-9;
    const double int8_gflops = flops / int8_s * 1e-9;
    std::printf("[kernels] %-20s fc   m=%lld n=%lld k=%lld  fp32 %.2f GF/s  "
                "int8 %.2f GF/s  speedup %.2fx\n",
                s.name, static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                fp32_gflops, int8_gflops, int8_s > 0 ? fp32_s / int8_s : 0.0);
  }
  {
    const agents::PolicyNetConfig cfg;  // the paper's net, grid 20
    Rng rng(5);
    const agents::PolicyNet net(cfg, rng);
    const nn::quant::QuantizedParams qp =
        agents::QuantizePolicyParams(net.Parameters());
    for (const int batch : {8, 11, 16}) {
      const std::vector<float> states =
          RandomBuffer(batch * cfg.in_channels * cfg.grid * cfg.grid, 34);
      const nn::Tensor x = nn::Tensor::FromData(
          {batch, cfg.in_channels, cfg.grid, cfg.grid}, states);
      const auto fp32 = [&] {
        nn::NoGradGuard no_grad;
        const agents::PolicyOutput o = net.Forward(x);
        benchmark::DoNotOptimize(o.value.data());
      };
      const auto int8 = [&] {
        const agents::QuantPolicyOutput o =
            agents::QuantPolicyForward(cfg, qp, states.data(), batch);
        benchmark::DoNotOptimize(o.value.data());
      };
      // Rounds of 16 calls per side, the side that goes first alternating,
      // so that a slow phase of the host lands on both; medians of the
      // per-call times.
      constexpr int kRounds = 31, kCalls = 16;
      const auto per_call = [](const auto& fn) {
        Stopwatch sw;
        for (int i = 0; i < kCalls; ++i) fn();
        return sw.ElapsedSeconds() / kCalls;
      };
      fp32();
      int8();
      std::vector<double> fp32_s, int8_s;
      for (int r = 0; r < kRounds; ++r) {
        if (r % 2 == 0) {
          fp32_s.push_back(per_call(fp32));
          int8_s.push_back(per_call(int8));
        } else {
          int8_s.push_back(per_call(int8));
          fp32_s.push_back(per_call(fp32));
        }
      }
      std::sort(fp32_s.begin(), fp32_s.end());
      std::sort(int8_s.begin(), int8_s.end());
      const double fp32_us = fp32_s[kRounds / 2] * 1e6;
      const double int8_us = int8_s[kRounds / 2] * 1e6;
      const std::string name = "serve_policy_b" + std::to_string(batch);
      std::printf("[kernels] %-20s net  batch=%d  fp32 %.1f us  int8 %.1f us  "
                  "speedup %.2fx\n",
                  name.c_str(), batch, fp32_us, int8_us, fp32_us / int8_us);
    }
  }
}

}  // namespace

// Expanded BENCHMARK_MAIN() with a trailing obs profile dump: set
// CEWS_OBS_PROFILE=1 to print where the kernel time actually went. Set
// CEWS_BENCH_KERNELS=1 to run the packed-vs-reference GEMM sweep and print
// its [kernels] lines (use --benchmark_filter=NONE to skip the google
// benchmarks and run the sweep alone).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (cews::GetEnvBool("CEWS_BENCH_KERNELS")) RunKernelSweep();
  cews::bench::MaybeEmitProfile();
  return 0;
}
