// Trainable network building blocks on top of the tensor ops.
#ifndef CEWS_NN_MODULE_H_
#define CEWS_NN_MODULE_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace cews::nn {

/// Base class for anything holding trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// Handles to every trainable parameter tensor, in a stable order. The
  /// handles share storage with the module, so optimizers and the
  /// chief-employee gradient exchange mutate the module in place.
  virtual std::vector<Tensor> Parameters() const = 0;

  /// Zeroes the gradient of every parameter.
  void ZeroGrad() const;

  /// Total number of scalar parameters.
  Index NumParameters() const;
};

/// Fully-connected layer: y = x W + b, x [N, in], W [in, out], b [out].
class Linear : public Module {
 public:
  /// Xavier-initialized weights, zero bias. `gain` rescales the init (PPO
  /// convention: small gain on policy output layers).
  Linear(Index in_features, Index out_features, cews::Rng& rng,
         float gain = 1.0f);

  /// With `rows`, x holds the distinct rows of a batch that repeats some
  /// (nn/ops.h "RowMap"), and so does the result.
  Tensor Forward(const Tensor& x, RowMapPtr rows = nullptr) const;
  std::vector<Tensor> Parameters() const override;

  Index in_features() const { return weight_.dim(0); }
  Index out_features() const { return weight_.dim(1); }

 private:
  Tensor weight_;
  Tensor bias_;
};

/// 2-D convolution layer with He-normal init.
class Conv2dLayer : public Module {
 public:
  Conv2dLayer(Index in_channels, Index out_channels, int kernel, int stride,
              int padding, cews::Rng& rng);

  /// x: [N, C, H, W] -> [N, O, OH, OW]. With `rows`, x holds the distinct
  /// images of a batch that repeats some (nn/ops.h "RowMap").
  Tensor Forward(const Tensor& x, RowMapPtr rows = nullptr) const;
  std::vector<Tensor> Parameters() const override;

  int stride() const { return stride_; }
  int padding() const { return padding_; }

 private:
  Tensor weight_;
  Tensor bias_;
  int stride_;
  int padding_;
};

/// Layer normalization over all non-batch dimensions followed by ReLU, as
/// one fused op (the paper adds a LayerNorm after every CNN layer, Section
/// V-B, and the trunk activates each with ReLU).
class LayerNormRelu : public Module {
 public:
  /// `features` = product of the normalized (non-batch) dims.
  explicit LayerNormRelu(Index features);

  /// With `rows`, x holds the distinct rows of a batch that repeats some
  /// (nn/ops.h "RowMap").
  Tensor Forward(const Tensor& x, RowMapPtr rows = nullptr) const;
  std::vector<Tensor> Parameters() const override;

 private:
  Tensor gamma_;
  Tensor beta_;
};

/// Embedding table [V, D]. When `trainable` is false the table is frozen —
/// the paper's spatial curiosity model uses a *static* random embedding of
/// grid positions (Section VII-D, following Burda et al.).
class Embedding : public Module {
 public:
  Embedding(Index vocab, Index dim, cews::Rng& rng, bool trainable = true);

  /// ids -> [ids.size(), D].
  Tensor Forward(const std::vector<Index>& ids) const;

  /// Empty when frozen.
  std::vector<Tensor> Parameters() const override;

  Index vocab() const { return table_.dim(0); }
  Index dim() const { return table_.dim(1); }

 private:
  Tensor table_;
  bool trainable_;
};

/// Activation kinds accepted by Mlp.
enum class Activation { kRelu, kTanh, kNone };

/// Applies the named activation.
Tensor Activate(const Tensor& x, Activation act);

/// Multi-layer perceptron: Linear -> act -> ... -> Linear (no activation on
/// the output layer).
class Mlp : public Module {
 public:
  /// `sizes` = {in, hidden..., out}; needs at least two entries.
  Mlp(const std::vector<Index>& sizes, Activation hidden_act, cews::Rng& rng,
      float output_gain = 1.0f);

  Tensor Forward(const Tensor& x) const;
  std::vector<Tensor> Parameters() const override;

 private:
  std::vector<Linear> layers_;
  Activation hidden_act_;
};

}  // namespace cews::nn

#endif  // CEWS_NN_MODULE_H_
