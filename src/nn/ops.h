// Differentiable tensor operations.
//
// Every op returns a fresh tensor; when grad mode is on and any input
// requires grad, the result carries a backward closure that accumulates
// gradients into its parents. All backwards are verified against finite
// differences in tests/nn_grad_check_test.cc.
#ifndef CEWS_NN_OPS_H_
#define CEWS_NN_OPS_H_

#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace cews::nn {

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Adds a scalar to every element.
Tensor AddScalar(const Tensor& a, float s);
/// Multiplies every element by a scalar.
Tensor MulScalar(const Tensor& a, float s);
/// Elementwise negation.
Tensor Neg(const Tensor& a);

class RowMap;

/// Adds bias vector b of shape [D] to every row of x of shape [N, D]. With
/// `rows`, x holds the distinct rows of rows->logical() logical ones
/// (RowMap below).
Tensor AddBias(const Tensor& x, const Tensor& b,
               std::shared_ptr<const RowMap> rows = nullptr);

/// Matrix product of a [N, K] and b [K, M] -> [N, M]. With `rows`, a holds
/// the distinct rows of rows->logical() logical ones (RowMap below).
Tensor MatMul(const Tensor& a, const Tensor& b,
              std::shared_ptr<const RowMap> rows = nullptr);

/// Elementwise max(x, 0).
Tensor Relu(const Tensor& x);
/// Elementwise hyperbolic tangent.
Tensor Tanh(const Tensor& x);
/// Elementwise logistic sigmoid.
Tensor Sigmoid(const Tensor& x);
/// Elementwise exponential.
Tensor Exp(const Tensor& x);
/// Elementwise natural log; inputs must be strictly positive.
Tensor Log(const Tensor& x);
/// Elementwise square.
Tensor Square(const Tensor& x);
/// Elementwise clamp into [lo, hi]; gradient flows only in the interior.
Tensor Clip(const Tensor& x, float lo, float hi);
/// Elementwise minimum; the smaller input receives the gradient (ties -> a).
Tensor Min(const Tensor& a, const Tensor& b);
/// Elementwise maximum; the larger input receives the gradient (ties -> a).
Tensor Max(const Tensor& a, const Tensor& b);

/// Softmax over the last dimension (numerically stabilized).
Tensor Softmax(const Tensor& x);
/// Log-softmax over the last dimension (numerically stabilized).
Tensor LogSoftmax(const Tensor& x);

/// Sum of all elements -> scalar.
Tensor Sum(const Tensor& x);
/// Mean of all elements -> scalar.
Tensor Mean(const Tensor& x);
/// Sums out the last dimension: [..., D] -> [...].
Tensor SumLastDim(const Tensor& x);

/// Reinterprets x with a new shape of equal element count.
Tensor Reshape(const Tensor& x, const Shape& shape);

/// Concatenates along the last dimension; leading dims must match.
Tensor Concat(const Tensor& a, const Tensor& b);

/// Picks x[row, idx[row]] along the last dimension: [..., D] with one index
/// per leading row -> shape [...]. Used for log-prob lookup of taken actions.
Tensor GatherLastDim(const Tensor& x, const std::vector<Index>& idx);

/// Row maps: a batch that repeats rows, run once per distinct row.
///
/// A PPO minibatch drawn with replacement holds a transition as often as it
/// was drawn. A RowMap lets Conv2d, LayerNormReluOp, MatMul and AddBias run
/// on the distinct rows only while every parameter gradient keeps the bytes
/// the expanded batch gives it:
///  * Logical row i of the batch reads distinct row rows()[i]. Distinct rows
///    are numbered by first occurrence, so first()[u] >= u. A tensor paired
///    with a map holds only the distinct rows in dim 0.
///  * Forward: each distinct row's output bytes equal that row's output in
///    the expanded batch.
///  * Conv dW: one fresh per-image dot per distinct image, added to dW once
///    per logical image in logical order (the sequence nn/conv.h promises).
///    Conv db replays the per-image pixel sums the same way.
///  * MatMul dB: the fmaf chain of each element runs over the logical rows
///    in order, step i reading distinct row rows()[i] of A and of dC
///    (gemm::GemmNN's `lrows`). AddBias db: the acc + dy chain, the same
///    way.
///  * Conv dX, LayerNorm dx, MatMul dA and AddBias dx: computed once per
///    distinct row from that row's output gradient.
///  * LayerNorm dgamma and dbeta: the fmaf(g, xh, acc) and acc + g chains
///    run over the logical rows in order, each reading g and xh from its
///    distinct row. A chain of fmas cannot be scaled by a count, so it
///    visits every logical row.
///  * ExpandRows restores the logical rows. Its backward gives distinct row
///    u the gradient of its first logical row and CHECKs that every later
///    logical row of u carries the same bytes. That holds when everything
///    after it is row-wise, as the PPO loss on the policy's head outputs
///    is; the equality is what makes the replay exact, and the CHECK stops
///    a cross-row loss from silently getting a wrong gradient.
/// A map without repeats (the identity) runs the same code; callers pass
/// none when nothing repeats.
class RowMap {
 public:
  /// Numbers `keys` by first occurrence: logical row i reads the distinct
  /// row of the first logical row with key keys[i]. Keys must be >= 0.
  static std::shared_ptr<const RowMap> Number(const std::vector<Index>& keys);

  Index logical() const { return static_cast<Index>(rows_.size()); }
  Index distinct() const { return static_cast<Index>(first_.size()); }
  /// rows()[i]: the distinct row logical row i reads.
  const std::vector<Index>& rows() const { return rows_; }
  /// first()[u]: the first logical row reading distinct row u (ascending).
  const std::vector<Index>& first() const { return first_; }

 private:
  std::vector<Index> rows_, first_;
};
using RowMapPtr = std::shared_ptr<const RowMap>;

/// 2-D convolution. x: [N, C, H, W], w: [O, C, KH, KW], optional bias [O]
/// (pass an undefined Tensor for no bias). Zero padding. With `rows`, x
/// holds the distinct images of rows->logical() logical ones (RowMap).
Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int stride, int padding, RowMapPtr rows = nullptr);

/// Layer normalization over all non-batch dims of x [N, ...] followed by
/// ReLU, in one kernel (nn/layer_norm.h): relu(gamma * xhat + beta), where
/// gamma/beta are flat [features], features = numel/N and the variance
/// takes layer_norm::kEps. With `rows`, x holds the distinct rows of
/// rows->logical() logical ones (RowMap).
Tensor LayerNormReluOp(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, RowMapPtr rows = nullptr);

/// out[i] = x[rows->rows()[i]]: the logical rows of a tensor holding only
/// the distinct ones (RowMap). x: [rows->distinct(), ...] ->
/// [rows->logical(), ...].
Tensor ExpandRows(const Tensor& x, const RowMapPtr& rows);

/// Looks up rows of `table` [V, D] at `ids` -> [ids.size(), D].
Tensor EmbeddingLookup(const Tensor& table, const std::vector<Index>& ids);

/// Mean squared error between pred and target (same shape) -> scalar.
Tensor MseLoss(const Tensor& pred, const Tensor& target);

/// Elementwise Huber penalty of x: 0.5 x^2 for |x| <= delta, else
/// delta (|x| - 0.5 delta). Quadratic near zero, linear in the tails —
/// the robust value/TD loss used by the DQN baseline.
Tensor Huber(const Tensor& x, float delta);

/// Mean Huber loss between pred and target -> scalar.
Tensor HuberLoss(const Tensor& pred, const Tensor& target,
                 float delta = 1.0f);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }

}  // namespace cews::nn

#endif  // CEWS_NN_OPS_H_
