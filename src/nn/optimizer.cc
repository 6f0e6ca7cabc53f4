#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

namespace cews::nn {

namespace {

/// One Adam update of n elements. The m and v multiply-adds are written as
/// the one-rounding fmas a native build always contracted them to; the
/// divisions, the square root, eps and the subtraction keep their order.
/// The vector lanes run the same sequence as the scalar loop, so every
/// build and every split between them gives the same bytes.
void AdamUpdate(Index n, const float* g, float* p, float* m, float* v,
                float beta1, float beta2, float lr, float eps, float bc1,
                float bc2) {
  const float c1 = 1.0f - beta1;
  const float c2 = 1.0f - beta2;
  Index i = 0;
#if defined(__AVX512F__)
  const __m512 b1 = _mm512_set1_ps(beta1), b2 = _mm512_set1_ps(beta2);
  const __m512 c1v = _mm512_set1_ps(c1), c2v = _mm512_set1_ps(c2);
  const __m512 lrv = _mm512_set1_ps(lr), epsv = _mm512_set1_ps(eps);
  const __m512 bc1v = _mm512_set1_ps(bc1), bc2v = _mm512_set1_ps(bc2);
  for (; i + 16 <= n; i += 16) {
    const __m512 gv = _mm512_loadu_ps(g + i);
    const __m512 mv =
        _mm512_fmadd_ps(b1, _mm512_loadu_ps(m + i), _mm512_mul_ps(c1v, gv));
    const __m512 vv = _mm512_fmadd_ps(
        b2, _mm512_loadu_ps(v + i), _mm512_mul_ps(_mm512_mul_ps(c2v, gv), gv));
    _mm512_storeu_ps(m + i, mv);
    _mm512_storeu_ps(v + i, vv);
    const __m512 mhat = _mm512_div_ps(mv, bc1v);
    const __m512 vhat = _mm512_div_ps(vv, bc2v);
    // maskz with every lane set is plain sqrt; GCC 12 flags the unmasked
    // intrinsic's undefined pass-through operand as maybe-uninitialized.
    const __m512 root = _mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xFFFF),
                                             vhat);
    const __m512 step = _mm512_div_ps(_mm512_mul_ps(lrv, mhat),
                                      _mm512_add_ps(root, epsv));
    _mm512_storeu_ps(p + i, _mm512_sub_ps(_mm512_loadu_ps(p + i), step));
  }
#elif defined(__AVX2__) && defined(__FMA__)
  const __m256 b1 = _mm256_set1_ps(beta1), b2 = _mm256_set1_ps(beta2);
  const __m256 c1v = _mm256_set1_ps(c1), c2v = _mm256_set1_ps(c2);
  const __m256 lrv = _mm256_set1_ps(lr), epsv = _mm256_set1_ps(eps);
  const __m256 bc1v = _mm256_set1_ps(bc1), bc2v = _mm256_set1_ps(bc2);
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mv =
        _mm256_fmadd_ps(b1, _mm256_loadu_ps(m + i), _mm256_mul_ps(c1v, gv));
    const __m256 vv = _mm256_fmadd_ps(
        b2, _mm256_loadu_ps(v + i), _mm256_mul_ps(_mm256_mul_ps(c2v, gv), gv));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 mhat = _mm256_div_ps(mv, bc1v);
    const __m256 vhat = _mm256_div_ps(vv, bc2v);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(lrv, mhat),
                      _mm256_add_ps(_mm256_sqrt_ps(vhat), epsv));
    _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), step));
  }
#endif
  for (; i < n; ++i) {
    m[i] = std::fmaf(beta1, m[i], c1 * g[i]);
    v[i] = std::fmaf(beta2, v[i], c2 * g[i] * g[i]);
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace

Optimizer::Optimizer(std::vector<Tensor> params)
    : params_(std::move(params)) {
  CEWS_CHECK(!params_.empty());
  for (const Tensor& t : params_) {
    CEWS_CHECK(t.defined());
    CEWS_CHECK(t.requires_grad()) << "optimizing a non-trainable tensor";
  }
}

void Optimizer::ZeroGrad() {
  for (Tensor t : params_) t.ZeroGrad();
}

Sgd::Sgd(std::vector<Tensor> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  if (momentum_ != 0.0f) {
    velocity_.reserve(params_.size());
    for (const Tensor& t : params_) {
      velocity_.emplace_back(static_cast<size_t>(t.numel()), 0.0f);
    }
  }
}

void Sgd::Step() {
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    Tensor t = params_[pi];
    const float* g = t.grad();
    if (g == nullptr) continue;
    float* p = t.data();
    if (momentum_ == 0.0f) {
      for (Index i = 0; i < t.numel(); ++i) p[i] -= lr_ * g[i];
    } else {
      std::vector<float>& vel = velocity_[pi];
      for (Index i = 0; i < t.numel(); ++i) {
        vel[i] = momentum_ * vel[i] + g[i];
        p[i] -= lr_ * vel[i];
      }
    }
  }
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& t : params_) {
    m_.emplace_back(static_cast<size_t>(t.numel()), 0.0f);
    v_.emplace_back(static_cast<size_t>(t.numel()), 0.0f);
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    Tensor t = params_[pi];
    const float* g = t.grad();
    if (g == nullptr) continue;
    AdamUpdate(t.numel(), g, t.data(), m_[pi].data(), v_[pi].data(), beta1_,
               beta2_, lr_, eps_, bc1, bc2);
  }
}

}  // namespace cews::nn
