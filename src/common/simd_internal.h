#ifndef XSDF_COMMON_SIMD_INTERNAL_H_
#define XSDF_COMMON_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>

/// Shared between simd.cc (dispatch + scalar + SSE2) and simd_avx2.cc
/// (the only TU compiled with -mavx2). The scalar bodies live here as
/// inline functions because every vector variant funnels its tail —
/// and the sub-vector-width small-input case — through them: one
/// definition keeps the "every level returns the scalar result"
/// contract easy to audit.
namespace xsdf::simd::internal {

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

#if defined(__x86_64__) || defined(_M_X64)
#define XSDF_SIMD_X86_64 1

// SSE2 variants (baseline on x86-64; defined in simd.cc).
size_t FindU32Sse2(const uint32_t* data, size_t n, uint32_t value);
bool IntersectNonEmptySse2(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb);

// The AVX2 variant (defined in simd_avx2.cc, the TU built with -mavx2).
// When the toolchain cannot build AVX2 it falls back to the SSE2 body
// and Avx2Compiled() reports false, so dispatch never selects a level
// the binary cannot honor.
bool Avx2Compiled();
size_t FindU32Avx2(const uint32_t* data, size_t n, uint32_t value);
#endif  // x86-64

}  // namespace xsdf::simd::internal

#endif  // XSDF_COMMON_SIMD_INTERNAL_H_
