#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/layer_norm.h"
#include "nn/workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cews::nn {

namespace {

// ---------------------------------------------------------------------------
// Intra-op parallelism.
//
// The hot kernels run on the cews::runtime global pool: MatMul via the
// packed GEMM layer (nn/gemm.h), Conv2d via the direct convolution kernels
// (nn/conv.h). Every kernel is written so that each parallel index owns its
// accumulators outright (a row of the output, an image of the batch, a tap
// of the weight gradient) and accumulates them in a fixed serial order.
// Chunk boundaries therefore never change any floating-point result:
// outputs are bitwise-identical at any thread count.
//
// Transient buffers (padded conv inputs, packed panels, transposed
// gradients) and op outputs come from the per-thread workspace arena
// (nn/workspace.h), so a steady-state training step recycles every one of
// them instead of hitting the allocator.
// ---------------------------------------------------------------------------

/// Telemetry for one hot kernel (obs/metrics.h): call count plus FLOP- and
/// time-weighted forward/backward totals, so a scrape can report effective
/// FLOP/s per kernel.
struct KernelMetrics {
  explicit KernelMetrics(const std::string& prefix)
      : calls(obs::GetCounter(prefix + ".calls")),
        fwd_flops(obs::GetCounter(prefix + ".fwd_flops")),
        fwd_ns(obs::GetCounter(prefix + ".fwd_ns")),
        bwd_flops(obs::GetCounter(prefix + ".bwd_flops")),
        bwd_ns(obs::GetCounter(prefix + ".bwd_ns")) {}
  obs::Counter* const calls;
  obs::Counter* const fwd_flops;
  obs::Counter* const fwd_ns;
  obs::Counter* const bwd_flops;
  obs::Counter* const bwd_ns;
};

KernelMetrics& MatMulMetrics() {
  static KernelMetrics* m = new KernelMetrics("nn.matmul");
  return *m;
}

KernelMetrics& Conv2dMetrics() {
  static KernelMetrics* m = new KernelMetrics("nn.conv2d");
  return *m;
}

KernelMetrics& LayerNormMetrics() {
  static KernelMetrics* m = new KernelMetrics("nn.layer_norm");
  return *m;
}

/// Builds the result node over fresh (zero-filled, workspace-recycled)
/// storage the op then fills: wires tape parents (only those that require
/// grad — requires_grad never propagates through a non-tracking tensor, so
/// others cannot reach a leaf), and marks requires_grad when grad mode is
/// on. The caller installs backward_fn afterwards iff tracking.
Tensor NewResult(Shape shape, std::initializer_list<Tensor> inputs) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data = Workspace::AcquireVec(NumElements(shape));
  impl->shape = std::move(shape);
  bool track = false;
  if (GradModeEnabled()) {
    for (const Tensor& t : inputs) {
      if (t.defined() && t.requires_grad()) track = true;
    }
  }
  impl->requires_grad = track;
  if (track) {
    for (const Tensor& t : inputs) {
      if (t.defined() && t.requires_grad()) impl->parents.push_back(t.impl());
    }
  }
  return Tensor(std::move(impl));
}

/// True when the result should record a backward closure.
bool Tracking(const Tensor& out) { return out.requires_grad(); }

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  CEWS_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor r = NewResult(a.shape(), {a, b});
  const Index n = a.numel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib]() {
      const size_t n = o->data.size();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ia->grad[i] += o->grad[i];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ib->grad[i] += o->grad[i];
      }
    };
  }
  return r;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor r = NewResult(a.shape(), {a, b});
  const Index n = a.numel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) po[i] = pa[i] - pb[i];
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib]() {
      const size_t n = o->data.size();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ia->grad[i] += o->grad[i];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ib->grad[i] -= o->grad[i];
      }
    };
  }
  return r;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor r = NewResult(a.shape(), {a, b});
  const Index n = a.numel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib]() {
      const size_t n = o->data.size();
      if (ia->requires_grad) {
        ia->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ia->grad[i] += o->grad[i] * ib->data[i];
      }
      if (ib->requires_grad) {
        ib->EnsureGrad();
        for (size_t i = 0; i < n; ++i) ib->grad[i] += o->grad[i] * ia->data[i];
      }
    };
  }
  return r;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor r = NewResult(a.shape(), {a});
  const Index n = a.numel();
  const float* pa = a.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) po[i] = pa[i] + s;
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    r.impl()->backward_fn = [o, ia]() {
      ia->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) ia->grad[i] += o->grad[i];
    };
  }
  return r;
}

Tensor MulScalar(const Tensor& a, float s) {
  Tensor r = NewResult(a.shape(), {a});
  const Index n = a.numel();
  const float* pa = a.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) po[i] = pa[i] * s;
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    r.impl()->backward_fn = [o, ia, s]() {
      ia->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i)
        ia->grad[i] += o->grad[i] * s;
    };
  }
  return r;
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

namespace {

/// CHECKs that a row map fits a batch of `n` distinct rows.
void CheckRowMap(const RowMapPtr& rows, Index n, const char* op) {
  if (rows == nullptr) return;
  CEWS_CHECK_EQ(n, rows->distinct())
      << op << ": the batch must hold the map's distinct rows";
}

}  // namespace

Tensor AddBias(const Tensor& x, const Tensor& b, RowMapPtr rows) {
  CEWS_CHECK_EQ(x.ndim(), 2);
  CEWS_CHECK_EQ(b.ndim(), 1);
  const Index n = x.dim(0), d = x.dim(1);
  CEWS_CHECK_EQ(b.dim(0), d);
  CheckRowMap(rows, n, "AddBias");
  Tensor r = NewResult(x.shape(), {x, b});
  const float* px = x.data();
  const float* pb = b.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < d; ++j) po[i * d + j] = px[i * d + j] + pb[j];
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ix, ib, n, d, rows]() {
      if (ix->requires_grad) {
        ix->EnsureGrad();
        for (size_t i = 0; i < o->data.size(); ++i)
          ix->grad[i] += o->grad[i];
      }
      if (ib->requires_grad) {
        // db adds the rows in logical order, each read from its distinct
        // row under a map.
        ib->EnsureGrad();
        const Index logical = rows != nullptr ? rows->logical() : n;
        for (Index i = 0; i < logical; ++i) {
          const Index u =
              rows != nullptr ? rows->rows()[static_cast<size_t>(i)] : i;
          for (Index j = 0; j < d; ++j) ib->grad[j] += o->grad[u * d + j];
        }
      }
    };
  }
  return r;
}

Tensor MatMul(const Tensor& a, const Tensor& b, RowMapPtr rows) {
  CEWS_CHECK_EQ(a.ndim(), 2);
  CEWS_CHECK_EQ(b.ndim(), 2);
  const Index n = a.dim(0), k = a.dim(1), m = b.dim(1);
  CEWS_CHECK_EQ(b.dim(0), k);
  CheckRowMap(rows, n, "MatMul");
  // dB reduces over the logical rows; the other products run per row held.
  const Index logical = rows != nullptr ? rows->logical() : n;
  Tensor r = NewResult({n, m}, {a, b});
  {
    CEWS_TRACE_SCOPE("nn.MatMul");
    const uint64_t t0 = Stopwatch::NowNs();
    // GemmNN accumulates into the zero-filled output.
    gemm::GemmNN(n, m, k, a.data(), k, 1, b.data(), m, r.data(), m);
    KernelMetrics& metrics = MatMulMetrics();
    metrics.calls->Increment();
    metrics.fwd_flops->Add(2ull * static_cast<uint64_t>(n * k * m));
    metrics.fwd_ns->Add(Stopwatch::NowNs() - t0);
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib, n, k, m, logical, rows]() {
      CEWS_TRACE_SCOPE("nn.MatMul.bwd");
      const uint64_t t0 = Stopwatch::NowNs();
      uint64_t bwd_flops = 0;
      // dA = dC * B^T (NT shape: one fresh dot per element), once per row
      // held, and dB = A^T * dC (NN shape: rows of dB accumulate over the
      // logical rows in order, matching the transposed read of A; under a
      // map step l reads distinct row rows[l]). Both partitioned over
      // output rows.
      if (ia->requires_grad) {
        bwd_flops += 2ull * static_cast<uint64_t>(n * k * m);
        ia->EnsureGrad();
        const float* og = o->grad.data();
        const float* pb = ib->data.data();
        float* ga = ia->grad.data();
        gemm::GemmNT(n, k, m, og, m, pb, m, ga, k);
      }
      if (ib->requires_grad) {
        bwd_flops += 2ull * static_cast<uint64_t>(logical * k * m);
        ib->EnsureGrad();
        const float* og = o->grad.data();
        const float* pa = ia->data.data();
        float* gb = ib->grad.data();
        gemm::GemmNN(k, m, logical, pa, 1, k, og, m, gb, m,
                     rows != nullptr ? rows->rows().data() : nullptr);
      }
      KernelMetrics& metrics = MatMulMetrics();
      metrics.bwd_flops->Add(bwd_flops);
      metrics.bwd_ns->Add(Stopwatch::NowNs() - t0);
    };
  }
  return r;
}

namespace {

/// Shared scaffolding for unary elementwise ops whose backward is
/// dx = dy * dfn(x, y).
template <typename FwdFn, typename BwdFn>
Tensor UnaryElementwise(const Tensor& x, FwdFn fwd_fn, BwdFn dfn) {
  Tensor r = NewResult(x.shape(), {x});
  const Index n = x.numel();
  const float* px = x.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) po[i] = fwd_fn(px[i]);
  if (r.requires_grad()) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, dfn]() {
      ix->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) {
        ix->grad[i] += o->grad[i] * dfn(ix->data[i], o->data[i]);
      }
    };
  }
  return r;
}

}  // namespace

Tensor Relu(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return std::tanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Exp(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return std::exp(v); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& x) {
  return UnaryElementwise(
      x,
      [](float v) {
        CEWS_CHECK(v > 0.0f) << "Log: non-positive input " << v;
        return std::log(v);
      },
      [](float v, float) { return 1.0f / v; });
}

Tensor Square(const Tensor& x) {
  return UnaryElementwise(
      x, [](float v) { return v * v; },
      [](float v, float) { return 2.0f * v; });
}

Tensor Clip(const Tensor& x, float lo, float hi) {
  CEWS_CHECK(lo <= hi);
  return UnaryElementwise(
      x,
      [lo, hi](float v) { return v < lo ? lo : (v > hi ? hi : v); },
      [lo, hi](float v, float) { return (v > lo && v < hi) ? 1.0f : 0.0f; });
}

namespace {

/// Shared scaffolding for binary select ops (Min/Max): the gradient flows
/// entirely to the selected input.
template <typename PickA>
Tensor BinarySelect(const Tensor& a, const Tensor& b, PickA pick_a,
                    const char* name) {
  CheckSameShape(a, b, name);
  const Index n = a.numel();
  Tensor r = NewResult(a.shape(), {a, b});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) {
    po[i] = pick_a(pa[i], pb[i]) ? pa[i] : pb[i];
  }
  if (r.requires_grad()) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib, pick_a]() {
      if (ia->requires_grad) ia->EnsureGrad();
      if (ib->requires_grad) ib->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) {
        const bool to_a = pick_a(ia->data[i], ib->data[i]);
        if (to_a && ia->requires_grad) ia->grad[i] += o->grad[i];
        if (!to_a && ib->requires_grad) ib->grad[i] += o->grad[i];
      }
    };
  }
  return r;
}

}  // namespace

Tensor Min(const Tensor& a, const Tensor& b) {
  return BinarySelect(
      a, b, [](float x, float y) { return x <= y; }, "Min");
}

Tensor Max(const Tensor& a, const Tensor& b) {
  return BinarySelect(
      a, b, [](float x, float y) { return x >= y; }, "Max");
}

Tensor Softmax(const Tensor& x) {
  CEWS_CHECK_GE(x.ndim(), 1);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  Tensor r = NewResult(x.shape(), {x});
  const float* px = x.data();
  float* po = r.data();
  for (Index i = 0; i < rows; ++i) {
    const float* row = px + i * d;
    float mx = row[0];
    for (Index j = 1; j < d; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (Index j = 0; j < d; ++j) {
      const float e = std::exp(row[j] - mx);
      po[i * d + j] = e;
      sum += e;
    }
    for (Index j = 0; j < d; ++j) po[i * d + j] /= sum;
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, rows, d]() {
      // dx = p * (dy - sum(dy * p)) per row.
      ix->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float* p = o->data.data() + row * d;
        const float* dy = o->grad.data() + row * d;
        float dot = 0.0f;
        for (Index j = 0; j < d; ++j) dot += dy[j] * p[j];
        float* dx = ix->grad.data() + row * d;
        for (Index j = 0; j < d; ++j) dx[j] += p[j] * (dy[j] - dot);
      }
    };
  }
  return r;
}

Tensor LogSoftmax(const Tensor& x) {
  CEWS_CHECK_GE(x.ndim(), 1);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  Tensor r = NewResult(x.shape(), {x});
  const float* px = x.data();
  float* po = r.data();
  for (Index i = 0; i < rows; ++i) {
    const float* row = px + i * d;
    float mx = row[0];
    for (Index j = 1; j < d; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (Index j = 0; j < d; ++j) sum += std::exp(row[j] - mx);
    const float lse = mx + std::log(sum);
    for (Index j = 0; j < d; ++j) po[i * d + j] = row[j] - lse;
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, rows, d]() {
      // dx = dy - softmax(x) * sum(dy) per row.
      ix->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float* lp = o->data.data() + row * d;
        const float* dy = o->grad.data() + row * d;
        float sum_dy = 0.0f;
        for (Index j = 0; j < d; ++j) sum_dy += dy[j];
        float* dx = ix->grad.data() + row * d;
        for (Index j = 0; j < d; ++j) {
          dx[j] += dy[j] - std::exp(lp[j]) * sum_dy;
        }
      }
    };
  }
  return r;
}

Tensor Sum(const Tensor& x) {
  const Index n = x.numel();
  Tensor r = NewResult({}, {x});
  double acc = 0.0;
  const float* px = x.data();
  for (Index i = 0; i < n; ++i) acc += px[i];
  r.data()[0] = static_cast<float>(acc);
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix]() {
      ix->EnsureGrad();
      const float g = o->grad[0];
      for (size_t i = 0; i < ix->data.size(); ++i) ix->grad[i] += g;
    };
  }
  return r;
}

Tensor Mean(const Tensor& x) {
  CEWS_CHECK_GT(x.numel(), 0);
  const Index n = x.numel();
  const float inv_n = 1.0f / static_cast<float>(n);
  Tensor r = NewResult({}, {x});
  double acc = 0.0;
  const float* px = x.data();
  for (Index i = 0; i < n; ++i) acc += px[i];
  r.data()[0] = static_cast<float>(acc) * inv_n;
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, inv_n]() {
      ix->EnsureGrad();
      const float g = o->grad[0] * inv_n;
      for (size_t i = 0; i < ix->data.size(); ++i) ix->grad[i] += g;
    };
  }
  return r;
}

Tensor SumLastDim(const Tensor& x) {
  CEWS_CHECK_GE(x.ndim(), 1);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  Tensor r = NewResult(std::move(out_shape), {x});
  const float* px = x.data();
  float* po = r.data();
  for (Index i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (Index j = 0; j < d; ++j) acc += px[i * d + j];
    po[i] = static_cast<float>(acc);
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, rows, d]() {
      ix->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float g = o->grad[row];
        for (Index j = 0; j < d; ++j) ix->grad[row * d + j] += g;
      }
    };
  }
  return r;
}

Tensor Reshape(const Tensor& x, const Shape& shape) {
  CEWS_CHECK_EQ(NumElements(shape), x.numel());
  Tensor r = NewResult(shape, {x});
  std::copy(x.data(), x.data() + x.numel(), r.data());
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix]() {
      ix->EnsureGrad();
      for (size_t i = 0; i < o->data.size(); ++i) ix->grad[i] += o->grad[i];
    };
  }
  return r;
}

Tensor Concat(const Tensor& a, const Tensor& b) {
  CEWS_CHECK_EQ(a.ndim(), b.ndim());
  CEWS_CHECK_GE(a.ndim(), 1);
  for (int i = 0; i + 1 < a.ndim(); ++i) CEWS_CHECK_EQ(a.dim(i), b.dim(i));
  const Index da = a.dim(-1), db = b.dim(-1);
  const Index rows = a.numel() / da;
  Shape out_shape = a.shape();
  out_shape.back() = da + db;
  Tensor r = NewResult(std::move(out_shape), {a, b});
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = r.data();
  for (Index i = 0; i < rows; ++i) {
    float* orow = po + i * (da + db);
    for (Index j = 0; j < da; ++j) orow[j] = pa[i * da + j];
    for (Index j = 0; j < db; ++j) orow[da + j] = pb[i * db + j];
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ia = a.impl();
    auto ib = b.impl();
    r.impl()->backward_fn = [o, ia, ib, rows, da, db]() {
      if (ia->requires_grad) ia->EnsureGrad();
      if (ib->requires_grad) ib->EnsureGrad();
      for (Index row = 0; row < rows; ++row) {
        const float* g = o->grad.data() + row * (da + db);
        if (ia->requires_grad) {
          for (Index j = 0; j < da; ++j) ia->grad[row * da + j] += g[j];
        }
        if (ib->requires_grad) {
          for (Index j = 0; j < db; ++j) ib->grad[row * db + j] += g[da + j];
        }
      }
    };
  }
  return r;
}

Tensor GatherLastDim(const Tensor& x, const std::vector<Index>& idx) {
  CEWS_CHECK_GE(x.ndim(), 1);
  const Index d = x.dim(-1);
  const Index rows = x.numel() / d;
  CEWS_CHECK_EQ(static_cast<Index>(idx.size()), rows)
      << "GatherLastDim: one index per row";
  Shape out_shape(x.shape().begin(), x.shape().end() - 1);
  Tensor r = NewResult(std::move(out_shape), {x});
  const float* px = x.data();
  float* po = r.data();
  for (Index i = 0; i < rows; ++i) {
    const Index j = idx[static_cast<size_t>(i)];
    CEWS_CHECK_GE(j, 0);
    CEWS_CHECK_LT(j, d);
    po[i] = px[i * d + j];
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto ix = x.impl();
    r.impl()->backward_fn = [o, ix, idx, d]() {
      ix->EnsureGrad();
      for (size_t row = 0; row < idx.size(); ++row) {
        ix->grad[static_cast<Index>(row) * d + idx[row]] += o->grad[row];
      }
    };
  }
  return r;
}

std::shared_ptr<const RowMap> RowMap::Number(const std::vector<Index>& keys) {
  auto map = std::make_shared<RowMap>();
  std::unordered_map<Index, Index> number;
  number.reserve(keys.size());
  map->rows_.reserve(keys.size());
  for (const Index key : keys) {
    CEWS_CHECK_GE(key, 0);
    const auto [it, fresh] =
        number.emplace(key, static_cast<Index>(map->first_.size()));
    if (fresh) map->first_.push_back(static_cast<Index>(map->rows_.size()));
    map->rows_.push_back(it->second);
  }
  return map;
}

Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int stride, int padding, RowMapPtr rows) {
  CEWS_CHECK_EQ(x.ndim(), 4);
  CEWS_CHECK_EQ(w.ndim(), 4);
  CEWS_CHECK_GE(stride, 1);
  CEWS_CHECK_GE(padding, 0);
  CEWS_CHECK_EQ(w.dim(1), x.dim(1));
  if (bias.defined()) {
    CEWS_CHECK_EQ(bias.ndim(), 1);
    CEWS_CHECK_EQ(bias.dim(0), w.dim(0));
  }
  CEWS_CHECK_GE(x.dim(2) + 2 * padding, w.dim(2));
  CEWS_CHECK_GE(x.dim(3) + 2 * padding, w.dim(3));
  CheckRowMap(rows, x.dim(0), "Conv2d");
  auto plan = std::make_shared<const conv::Plan>(
      x.dim(0), x.dim(1), x.dim(2), x.dim(3), w.dim(0), w.dim(2), w.dim(3),
      stride, padding, rows != nullptr ? &rows->rows() : nullptr);
  const conv::Plan& s = *plan;

  // FLOPs of one batched conv product: multiply + add per (image, output
  // channel, tap, output pixel). Forward and each backward product share
  // this cost.
  const uint64_t conv_flops =
      2ull * static_cast<uint64_t>(s.n * s.oc * s.ck2() * s.ohow());

  Tensor r = NewResult({s.n, s.oc, s.oh, s.ow}, {x, w, bias});
  const bool track = Tracking(r);
  const bool need_dx = track && x.requires_grad();
  const bool need_dw = track && w.requires_grad();
  const bool need_db = track && bias.defined() && bias.requires_grad();

  // The padded input copy is written by forward and, when dW is wanted,
  // read again by backward.
  auto xpad = std::make_shared<ScopedVec>(s.PaddedFloats());
  {
    CEWS_TRACE_SCOPE("nn.Conv2d");
    const uint64_t t0 = Stopwatch::NowNs();
    ScopedVec scratch(s.ForwardScratchFloats());
    conv::Forward(s, x.data(), w.data(),
                  bias.defined() ? bias.data() : nullptr, xpad->data(),
                  scratch.data(), r.data());
    KernelMetrics& metrics = Conv2dMetrics();
    metrics.calls->Increment();
    metrics.fwd_flops->Add(conv_flops);
    metrics.fwd_ns->Add(Stopwatch::NowNs() - t0);
  }
  if (!track) return r;

  const Index dw_floats =
      need_dw || need_db ? s.WeightGradScratchFloats() : 0;
  const Index bwd_floats =
      dw_floats + (need_dx ? s.InputGradScratchFloats() : 0);
  if (!need_dw) xpad.reset();
  r.impl()->backward_fn = [o = r.impl().get(), ix = x.impl(), iw = w.impl(),
                           ib = bias.defined() ? bias.impl()
                                               : std::shared_ptr<TensorImpl>(),
                           plan, xpad, dw_floats, bwd_floats, need_dx,
                           need_dw, need_db, conv_flops]() {
    CEWS_TRACE_SCOPE("nn.Conv2d.bwd");
    const uint64_t t0 = Stopwatch::NowNs();
    ScopedVec scratch(bwd_floats);
    const float* dy = o->grad.data();
    uint64_t bwd_flops = 0;
    if (need_dw || need_db) {
      if (need_dw) iw->EnsureGrad();
      if (need_db) ib->EnsureGrad();
      conv::WeightGrad(*plan, need_dw ? xpad->data() : nullptr, dy,
                       need_dw ? iw->grad.data() : nullptr,
                       need_db ? ib->grad.data() : nullptr, scratch.data());
      if (need_dw) bwd_flops += conv_flops;
    }
    if (need_dx) {
      ix->EnsureGrad();
      conv::InputGrad(*plan, iw->data.data(), dy, ix->grad.data(),
                      scratch.data() + dw_floats);
      bwd_flops += conv_flops;
    }
    KernelMetrics& metrics = Conv2dMetrics();
    metrics.bwd_flops->Add(bwd_flops);
    metrics.bwd_ns->Add(Stopwatch::NowNs() - t0);
  };
  return r;
}

Tensor LayerNormReluOp(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, RowMapPtr rows) {
  CEWS_CHECK_GE(x.ndim(), 2);
  const Index n = x.dim(0);
  CEWS_CHECK_GT(n, 0);
  const Index f = x.numel() / n;
  CEWS_CHECK_EQ(gamma.numel(), f);
  CEWS_CHECK_EQ(beta.numel(), f);
  CheckRowMap(rows, n, "LayerNormReluOp");
  Tensor r = NewResult(x.shape(), {x, gamma, beta});
  const bool track = Tracking(r);
  const bool need_dx = track && x.requires_grad();
  const bool need_dg = track && gamma.requires_grad();
  const bool need_db = track && beta.requires_grad();
  // FLOPs per element: forward mean add, centred fma, xhat sub + mul and the
  // affine fma; backward the ReLU mask multiply + add and the xhat recompute,
  // then fma for dgamma, add for dbeta, and for dx the gamma product, two
  // row-sum terms and the final sub, fma, mul and add.
  const uint64_t elems = static_cast<uint64_t>(n * f);
  const uint64_t fwd_flops = 8 * elems;
  const uint64_t bwd_flops =
      elems * (4 + (need_dg ? 2 : 0) + (need_db ? 1 : 0) + (need_dx ? 9 : 0));
  // The per-row statistics are written by forward and read by backward.
  auto stats = std::make_shared<ScopedVec>(layer_norm::StatsFloats(n));
  {
    CEWS_TRACE_SCOPE("nn.LayerNormRelu");
    const uint64_t t0 = Stopwatch::NowNs();
    layer_norm::Forward(n, f, layer_norm::kEps, x.data(), gamma.data(),
                        beta.data(), stats->data(), r.data());
    KernelMetrics& metrics = LayerNormMetrics();
    metrics.calls->Increment();
    metrics.fwd_flops->Add(fwd_flops);
    metrics.fwd_ns->Add(Stopwatch::NowNs() - t0);
  }
  if (!track) return r;

  const Index bwd_floats =
      layer_norm::BackwardScratchFloats(n, f, rows != nullptr);
  r.impl()->backward_fn = [o = r.impl().get(), ix = x.impl(), ig = gamma.impl(),
                           ib = beta.impl(), n, f, stats, bwd_floats, rows,
                           need_dx, need_dg, need_db, bwd_flops]() {
    CEWS_TRACE_SCOPE("nn.LayerNormRelu.bwd");
    const uint64_t t0 = Stopwatch::NowNs();
    ScopedVec local(bwd_floats);
    if (need_dx) ix->EnsureGrad();
    if (need_dg) ig->EnsureGrad();
    if (need_db) ib->EnsureGrad();
    layer_norm::Backward(n, f, ix->data.data(), ig->data.data(),
                         o->data.data(), o->grad.data(), stats->data(),
                         need_dx ? ix->grad.data() : nullptr,
                         need_dg ? ig->grad.data() : nullptr,
                         need_db ? ib->grad.data() : nullptr,
                         local.data(),
                         rows != nullptr ? &rows->rows() : nullptr);
    KernelMetrics& metrics = LayerNormMetrics();
    metrics.bwd_flops->Add(bwd_flops);
    metrics.bwd_ns->Add(Stopwatch::NowNs() - t0);
  };
  return r;
}

Tensor ExpandRows(const Tensor& x, const RowMapPtr& rows) {
  CEWS_CHECK(rows != nullptr);
  CEWS_CHECK_GE(x.ndim(), 1);
  CheckRowMap(rows, x.dim(0), "ExpandRows");
  const Index row = x.numel() / rows->distinct();
  Shape shape = x.shape();
  shape[0] = rows->logical();
  Tensor r = NewResult(std::move(shape), {x});
  const float* px = x.data();
  float* po = r.data();
  for (Index i = 0; i < rows->logical(); ++i) {
    std::copy_n(px + rows->rows()[static_cast<size_t>(i)] * row, row,
                po + i * row);
  }
  if (!Tracking(r)) return r;
  r.impl()->backward_fn = [o = r.impl().get(), ix = x.impl(), rows, row]() {
    ix->EnsureGrad();
    const float* dy = o->grad.data();
    float* dx = ix->grad.data();
    for (Index i = 0; i < rows->logical(); ++i) {
      const Index u = rows->rows()[static_cast<size_t>(i)];
      const Index first = rows->first()[static_cast<size_t>(u)];
      if (i == first) {
        for (Index j = 0; j < row; ++j) dx[u * row + j] += dy[i * row + j];
      } else {
        CEWS_CHECK(std::memcmp(dy + i * row, dy + first * row,
                               static_cast<size_t>(row) * sizeof(float)) == 0)
            << "ExpandRows: logical rows " << first << " and " << i
            << " of distinct row " << u
            << " carry different gradients; the loss after the row map "
               "must treat repeated rows alike";
      }
    }
  };
  return r;
}

Tensor EmbeddingLookup(const Tensor& table, const std::vector<Index>& ids) {
  CEWS_CHECK_EQ(table.ndim(), 2);
  const Index v = table.dim(0), d = table.dim(1);
  const Index n = static_cast<Index>(ids.size());
  Tensor r = NewResult({n, d}, {table});
  const float* pt = table.data();
  float* po = r.data();
  for (Index i = 0; i < n; ++i) {
    const Index id = ids[static_cast<size_t>(i)];
    CEWS_CHECK_GE(id, 0);
    CEWS_CHECK_LT(id, v);
    const float* row = pt + id * d;
    for (Index j = 0; j < d; ++j) po[i * d + j] = row[j];
  }
  if (Tracking(r)) {
    auto o = r.impl().get();
    auto it = table.impl();
    r.impl()->backward_fn = [o, it, ids, d]() {
      it->EnsureGrad();
      for (size_t i = 0; i < ids.size(); ++i) {
        for (Index j = 0; j < d; ++j) {
          it->grad[ids[i] * d + j] += o->grad[static_cast<Index>(i) * d + j];
        }
      }
    };
  }
  return r;
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  return Mean(Square(Sub(pred, target)));
}

Tensor Huber(const Tensor& x, float delta) {
  CEWS_CHECK(delta > 0.0f);
  return UnaryElementwise(
      x,
      [delta](float v) {
        const float a = std::abs(v);
        return a <= delta ? 0.5f * v * v : delta * (a - 0.5f * delta);
      },
      [delta](float v, float) {
        if (v > delta) return delta;
        if (v < -delta) return -delta;
        return v;
      });
}

Tensor HuberLoss(const Tensor& pred, const Tensor& target, float delta) {
  return Mean(Huber(Sub(pred, target), delta));
}

}  // namespace cews::nn
