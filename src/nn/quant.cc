#include "nn/quant.h"

#include "common/check.h"
#include "common/stopwatch.h"
#include "nn/gemm_int8.h"
#include "obs/metrics.h"

namespace cews::nn::quant {

namespace {

obs::Counter* QuantizeNsCounter() {
  static obs::Counter* const c = obs::GetCounter("quant.publish_ns");
  return c;
}

}  // namespace

QuantizedTensor QuantizeLinearWeight(const Tensor& w) {
  CEWS_CHECK(w.defined());
  CEWS_CHECK_EQ(w.ndim(), 2);
  const Index in = w.dim(0);
  const Index out = w.dim(1);
  QuantizedTensor qt;
  qt.channels = out;
  qt.per_channel = in;
  qt.scales.resize(static_cast<size_t>(out));
  qt.rows = AlignedInt8Buffer(out * in);
  const float* pw = w.data();
  // Gather each output column into a contiguous scratch row, then quantize
  // the run — one strided pass per channel, amortized by the publish cadence.
  ScopedVec column(in);
  for (Index ch = 0; ch < out; ++ch) {
    float* col = column.data();
    for (Index l = 0; l < in; ++l) col[l] = pw[l * out + ch];
    gemm::QuantizeRowsInt8(1, in, col, in, qt.rows.data() + ch * in,
                           qt.scales.data() + ch);
  }
  // Pre-pack the B panel: rows is exactly the Y (n=out, k=in) operand
  // PackInt8NT consumes.
  qt.packed = AlignedInt8Buffer(gemm::Int8PanelBytes(in, out));
  gemm::PackInt8NT(in, out, qt.rows.data(), in, qt.packed.data());
  return qt;
}

QuantizedTensor QuantizeConvWeight(const Tensor& w) {
  CEWS_CHECK(w.defined());
  CEWS_CHECK_EQ(w.ndim(), 4);
  const Index oc = w.dim(0);
  const Index per = w.dim(1) * w.dim(2) * w.dim(3);
  QuantizedTensor qt;
  qt.channels = oc;
  qt.per_channel = per;
  qt.scales.resize(static_cast<size_t>(oc));
  qt.rows = AlignedInt8Buffer(oc * per);
  gemm::QuantizeRowsInt8(oc, per, w.data(), per, qt.rows.data(),
                         qt.scales.data());
  return qt;
}

void DequantizeChannel(const QuantizedTensor& qt, Index ch, float* out) {
  CEWS_CHECK_GE(ch, 0);
  CEWS_CHECK_LT(ch, qt.channels);
  const int8_t* row = qt.rows.data() + ch * qt.per_channel;
  const float scale = qt.scales[static_cast<size_t>(ch)];
  for (Index l = 0; l < qt.per_channel; ++l) {
    out[l] = static_cast<float>(row[l]) * scale;
  }
}

QuantizedParams QuantizeParams(const std::vector<Tensor>& params,
                               const std::vector<uint8_t>& quantize) {
  const uint64_t t0 = Stopwatch::NowNs();
  CEWS_CHECK_EQ(quantize.size(), params.size());
  QuantizedParams qp;
  qp.entries.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = params[i];
    CEWS_CHECK(t.defined());
    QuantizedParams::Entry entry;
    entry.quantized = quantize[i] != 0;
    if (!entry.quantized) {
      entry.dense.assign(t.data(), t.data() + t.numel());
    } else if (t.ndim() == 2) {
      entry.q = QuantizeLinearWeight(t);
    } else {
      entry.q = QuantizeConvWeight(t);
    }
    qp.entries.push_back(std::move(entry));
  }
  QuantizeNsCounter()->Add(Stopwatch::NowNs() - t0);
  return qp;
}

}  // namespace cews::nn::quant
