#ifndef XSDF_COMMON_SIMD_INTERNAL_H_
#define XSDF_COMMON_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>

/// Shared between simd.cc (dispatch + scalar + SSE2) and simd_avx2.cc
/// (the only TU compiled with -mavx2). The scalar bodies live here as
/// inline templates because every vector variant funnels its tail —
/// and the sub-vector-width small-input case — through them: one
/// definition keeps the "every level returns the scalar result"
/// contract easy to audit.
namespace xsdf::simd::internal {

/// Element key at logical index `e` of a (possibly interleaved) array:
/// kStride == 1 is a plain uint32 array, kStride == 2 reads the even
/// words of a (key, payload) pair sequence.
template <int kStride>
inline uint32_t KeyAt(const uint32_t* p, size_t e) {
  return p[kStride * e];
}

inline size_t FindU32Scalar(const uint32_t* data, size_t n,
                            uint32_t value) {
  size_t i = 0;
  while (i < n && data[i] != value) ++i;
  return i;
}

/// Scalar sorted-merge intersection probe resumed from (i, j).
inline bool IntersectNonEmptyScalarFrom(const uint32_t* a, size_t na,
                                        const uint32_t* b, size_t nb,
                                        size_t i, size_t j) {
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

/// Scalar position-emitting merge resumed from (i, j) with `k` matches
/// already written; returns the final match count.
template <int kStride>
inline size_t IntersectPositionsScalarFrom(const uint32_t* a, size_t na,
                                           const uint32_t* b, size_t nb,
                                           uint32_t* out_a,
                                           uint32_t* out_b, size_t i,
                                           size_t j, size_t k) {
  while (i < na && j < nb) {
    uint32_t va = KeyAt<kStride>(a, i);
    uint32_t vb = KeyAt<kStride>(b, j);
    if (va < vb) {
      ++i;
    } else if (vb < va) {
      ++j;
    } else {
      out_a[k] = static_cast<uint32_t>(i);
      if (out_b != nullptr) out_b[k] = static_cast<uint32_t>(j);
      ++k;
      ++i;
      ++j;
    }
  }
  return k;
}

#if defined(__x86_64__) || defined(_M_X64)
#define XSDF_SIMD_X86_64 1

// SSE2 variants (baseline on x86-64; defined in simd.cc).
size_t FindU32Sse2(const uint32_t* data, size_t n, uint32_t value);
bool IntersectNonEmptySse2(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb);
size_t IntersectPositionsSse2(const uint32_t* a, size_t na,
                              const uint32_t* b, size_t nb, uint32_t* out_a,
                              uint32_t* out_b);

// The AVX2 variant (defined in simd_avx2.cc, the TU built with -mavx2).
// When the toolchain cannot build AVX2 it falls back to the SSE2 body
// and Avx2Compiled() reports false, so dispatch never selects a level
// the binary cannot honor.
bool Avx2Compiled();
size_t FindU32Avx2(const uint32_t* data, size_t n, uint32_t value);
#endif  // x86-64

}  // namespace xsdf::simd::internal

#endif  // XSDF_COMMON_SIMD_INTERNAL_H_
