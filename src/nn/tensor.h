// Dense float tensor with reverse-mode automatic differentiation.
//
// This is the substrate that replaces TensorFlow/PyTorch for the paper's
// networks. Every op (ops.h) runs eagerly and records a backward closure on
// the tensor it produces; Tensor::Backward() runs that tape in reverse
// creation order.
//
// Design notes:
//  * Tensor is a cheap value-semantics handle (shared_ptr to TensorImpl).
//  * Gradients accumulate (+=) so a tensor used twice gets both
//    contributions; call ZeroGrad()/Optimizer::ZeroGrad() between steps.
//  * Backward() runs closures in descending creation order (a valid reverse
//    topological order, since every op's inputs exist before its output).
//  * Tape construction is gated by a thread-local grad mode (NoGradGuard),
//    so rollout-time forwards pay no tape cost. Each employee thread builds
//    its own tapes; there is no cross-thread sharing of TensorImpl.
#ifndef CEWS_NN_TENSOR_H_
#define CEWS_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace cews::nn {

/// Index/extent type for tensor dimensions.
using Index = int64_t;

/// Tensor shape as a list of extents; empty means "scalar".
using Shape = std::vector<Index>;

/// Number of elements implied by a shape (1 for scalars).
Index NumElements(const Shape& shape);

/// Human-readable "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// True while ops should record the autodiff tape (thread-local).
bool GradModeEnabled();

/// RAII guard that disables tape recording on this thread (rollouts,
/// evaluation). Nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

struct TensorImpl;

/// Value-semantics handle to a (possibly autograd-tracked) float tensor.
class Tensor {
 public:
  /// Null handle; defined() is false.
  Tensor() = default;

  /// Wraps an existing impl (internal use by ops).
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// All-zeros tensor of the given shape.
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);

  /// Constant-filled tensor.
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);

  /// Tensor adopting the given row-major data (size must match shape).
  static Tensor FromData(const Shape& shape, std::vector<float> data,
                         bool requires_grad = false);

  /// 0-dim scalar tensor.
  static Tensor Scalar(float value);

  /// True when this handle points at a tensor.
  bool defined() const { return impl_ != nullptr; }

  const Shape& shape() const;
  int ndim() const;
  Index dim(int i) const;
  Index numel() const;

  /// Raw row-major storage.
  float* data();
  const float* data() const;

  /// Gradient storage; nullptr until the first backward reaches this tensor.
  float* grad();
  const float* grad() const;

  /// True when this tensor participates in autodiff.
  bool requires_grad() const;

  /// Value of a 0-dim or 1-element tensor.
  float item() const;

  /// Element access by multi-dimensional index (debug/tests; slow).
  float at(std::initializer_list<Index> idx) const;

  /// Copies values out into a std::vector.
  std::vector<float> ToVector() const;

  /// Runs reverse-mode autodiff from this tensor, which must be a scalar.
  /// Gradients accumulate into every reachable tensor with requires_grad.
  /// A second Backward() on the same tape root is a hard CHECK failure
  /// (silent double-accumulation is never what the caller wants).
  void Backward();

  /// Zeroes this tensor's gradient buffer (allocating it if absent).
  void ZeroGrad();

  /// Returns a tensor sharing this storage but detached from the tape.
  Tensor Detach() const;

  /// Deep copy of values (no tape, preserves requires_grad=false).
  Tensor Clone() const;

  /// Internal: underlying impl.
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Internal node: storage plus tape edges. Public because ops.cc and tests
/// construct nodes directly; user code should stick to Tensor.
struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // empty until needed; same size as data
  bool requires_grad = false;

  /// Monotone per-thread creation stamp; Backward() orders closures by it
  /// (descending = reverse topological).
  uint64_t seq = 0;

  /// Set by the first Backward() whose root this node is; a second
  /// Backward() on the same root CHECK-fails.
  bool backward_done = false;

  /// Accumulates into parents' grads, reading this node's grad. Only set on
  /// interior nodes produced while GradModeEnabled().
  std::function<void()> backward_fn;

  /// Tape edges toward leaves.
  std::vector<std::shared_ptr<TensorImpl>> parents;

  TensorImpl();
  /// Recycles data/grad storage into the per-thread workspace arena
  /// (nn/workspace.h), so the next step's ops reuse it allocation-free.
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  /// Allocates (zeroed) grad storage if absent; storage comes from the
  /// workspace arena.
  void EnsureGrad();
};

}  // namespace cews::nn

#endif  // CEWS_NN_TENSOR_H_
