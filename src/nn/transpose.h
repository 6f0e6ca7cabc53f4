// In-register float transposes shared by the conv kernels (nn/conv.cc) and
// the GEMM packs (nn/gemm.cc). A transpose is a copy: no value changes.
#ifndef CEWS_NN_TRANSPOSE_H_
#define CEWS_NN_TRANSPOSE_H_

#include <algorithm>

#include "nn/tensor.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace cews::nn::detail {

#if defined(__AVX2__)
/// The 8x8 block of Transpose below.
inline void Transpose8x8(const float* src, Index ld_src, float* dst,
                         Index ld_dst) {
  __m256 r[8], t[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * ld_src);
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {
    r[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * ld_dst,
                     _mm256_permute2f128_ps(r[i], r[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * ld_dst,
                     _mm256_permute2f128_ps(r[i], r[i + 4], 0x31));
  }
}
#endif

/// dst[j * ld_dst + i] = src[i * ld_src + j] for i < rows, j < cols.
inline void Transpose(const float* src, Index ld_src, Index rows, Index cols,
                      float* dst, Index ld_dst) {
#if defined(__AVX2__)
  if (rows >= 8 && cols >= 8) {
    // 8x8 blocks; a ragged edge takes one more block flush with the end,
    // overlapping its neighbour (which rewrites the same values).
    for (Index i0 = 0; i0 < rows; i0 += 8) {
      const Index i = std::min(i0, rows - 8);
      for (Index j0 = 0; j0 < cols; j0 += 8) {
        const Index j = std::min(j0, cols - 8);
        Transpose8x8(src + i * ld_src + j, ld_src, dst + j * ld_dst + i,
                     ld_dst);
      }
    }
    return;
  }
#endif
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) dst[j * ld_dst + i] = src[i * ld_src + j];
  }
}

}  // namespace cews::nn::detail

#endif  // CEWS_NN_TRANSPOSE_H_
