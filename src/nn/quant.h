// cews::nn::quant — publish-time per-channel symmetric int8 quantization of
// policy parameters.
//
// Scale derivation (per output channel ch): scale[ch] = absmax(W[ch]) / 127,
// q = saturate_rtne(w * (127 / absmax)) in [-127, 127], dequant w' = q *
// scale. The grid is symmetric around an exactly-representable zero (0 -> 0
// -> 0.0f), the channel's absmax maps to ±127 exactly, and
// round-to-nearest-even (std::nearbyintf under the default rounding mode)
// makes the mapping deterministic and unbiased. It is the activation rows'
// rule too: each channel is quantized as one row by gemm::QuantizeRowsInt8.
// "Output channel" means the axis a GEMM output element sums over one
// row/column of:
//   * Linear weights [in, out] — one channel per output feature (a column
//     of W); stored channel-major ([out, in]) so each channel is a
//     contiguous int8 row, plus a pre-packed B panel (gemm_int8.h) so the
//     serve-time product needs NO per-request pack.
//   * Conv weights [O, C, KH, KW] — one channel per output map; the native
//     row-major layout is already channel-major ([O, C*KH*KW]), and conv
//     weights sit on the A side of the im2col product, which reads plain
//     rows (no panel needed).
// 1-D parameters (biases, LayerNorm gamma/beta) stay fp32: they are O(n)
// epilogue terms, not GEMM operands, and quantizing them would cost accuracy
// for zero kernel-time win.
//
// QuantizeParams runs ONCE per hot-swap epoch — ModelRegistry::Publish
// builds the bundle alongside the fp32 snapshot, so serving pays zero
// per-request weight-quantization or pack cost (the publish-time
// amortization argument; see DESIGN.md "Quantized inference"). The bundle
// is immutable after construction and shared read-only by every inference
// worker. Training never sees it: the learner's numerics stay fp32 and
// bitwise-deterministic.
#ifndef CEWS_NN_QUANT_H_
#define CEWS_NN_QUANT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/tensor.h"
#include "nn/workspace.h"

namespace cews::nn::quant {

/// Heap buffer of int8 whose data() honors the kPanelAlignment (64 B)
/// contract packed panels require. Plain std::vector<int8_t> only guarantees
/// alignof(std::max_align_t); this over-allocates and offsets. Copy/move
/// safe: the alignment offset is recomputed from the storage base.
class AlignedInt8Buffer {
 public:
  AlignedInt8Buffer() = default;
  explicit AlignedInt8Buffer(Index n)
      : storage_(static_cast<size_t>(n) + kPanelAlignment), size_(n) {
    Realign();
  }
  AlignedInt8Buffer(const AlignedInt8Buffer& other)
      : storage_(other.storage_), size_(other.size_) {
    Realign();
    if (size_ > 0) {
      std::copy(other.data(), other.data() + size_, data());
    }
  }
  AlignedInt8Buffer& operator=(const AlignedInt8Buffer& other) {
    if (this != &other) {
      storage_ = other.storage_;
      size_ = other.size_;
      Realign();
      if (size_ > 0) std::copy(other.data(), other.data() + size_, data());
    }
    return *this;
  }
  AlignedInt8Buffer(AlignedInt8Buffer&&) = default;
  AlignedInt8Buffer& operator=(AlignedInt8Buffer&&) = default;

  int8_t* data() { return storage_.data() + offset_; }
  const int8_t* data() const { return storage_.data() + offset_; }
  Index size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  void Realign() {
    const auto base = reinterpret_cast<std::uintptr_t>(storage_.data());
    offset_ = static_cast<size_t>(
        (kPanelAlignment - base % kPanelAlignment) % kPanelAlignment);
  }
  std::vector<int8_t> storage_;
  Index size_ = 0;
  size_t offset_ = 0;
};

/// One weight tensor quantized per output channel. `rows` holds the int8
/// values channel-major ([channels, per_channel] row-major — the A-side
/// layout); `packed` additionally holds the gemm_int8 B panel for 2-D
/// (Linear) weights, empty for conv weights (A-side operand).
struct QuantizedTensor {
  Index channels = 0;          ///< Output channels (= quantization groups).
  Index per_channel = 0;       ///< Elements per channel (the GEMM k).
  std::vector<float> scales;   ///< [channels], absmax/127 (1.0 if all-zero).
  AlignedInt8Buffer rows;      ///< Channel-major int8 [channels*per_channel].
  AlignedInt8Buffer packed;    ///< Pre-packed panel (2-D weights only).
};

/// Quantizes a Linear weight [in, out] per output column. rows[ch*in + l] =
/// q(W[l, out=ch]); packed = PackInt8NT of rows (panel of `out` columns by
/// `in` rows).
QuantizedTensor QuantizeLinearWeight(const Tensor& w);

/// Quantizes a Conv2d weight [O, C, KH, KW] per output map O; rows is the
/// native layout quantized, packed stays empty.
QuantizedTensor QuantizeConvWeight(const Tensor& w);

/// Dequantizes channel ch of `qt` into `out` (per_channel floats):
/// out[l] = rows[ch*per_channel + l] * scales[ch]. Test/diagnostic helper.
void DequantizeChannel(const QuantizedTensor& qt, Index ch, float* out);

/// The immutable publish-time bundle: one entry per parameter tensor,
/// index-aligned with the fp32 parameter list it was built from
/// (PolicyNet::Parameters() order for policy nets). The flagged weights are
/// quantized; everything else is a dense fp32 copy.
struct QuantizedParams {
  struct Entry {
    bool quantized = false;
    QuantizedTensor q;         ///< Valid when quantized.
    std::vector<float> dense;  ///< fp32 copy when not quantized.
  };
  std::vector<Entry> entries;
};

/// Builds the bundle from a parameter list (deep copy; `params` may be
/// hot-swapped or freed afterwards). `quantize` holds one flag per
/// parameter: a flagged tensor must be a Linear (2-D) or Conv2d (4-D)
/// weight and is quantized, the others are kept as dense fp32 copies.
/// Callers quantize only the serve-hot GEMMs and keep small,
/// decision-critical layers (e.g. policy heads) at full precision — see
/// agents::QuantizePolicyParams.
QuantizedParams QuantizeParams(const std::vector<Tensor>& params,
                               const std::vector<uint8_t>& quantize);

}  // namespace cews::nn::quant

#endif  // CEWS_NN_QUANT_H_
