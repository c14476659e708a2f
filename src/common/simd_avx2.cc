// The one TU built with -mavx2 (see src/common/CMakeLists.txt). The
// runtime dispatcher in simd.cc only routes here when CPUID reports
// AVX2 *and* Avx2Compiled() is true, so this body never executes on
// hardware that lacks the instructions. When the toolchain cannot
// build AVX2 at all, the #else block links the SSE2 body instead and
// reports Avx2Compiled() == false.
#include "common/simd_internal.h"

#if defined(XSDF_SIMD_X86_64)

#if defined(__AVX2__)

#include <immintrin.h>

namespace xsdf::simd::internal {

bool Avx2Compiled() { return true; }

size_t FindU32Avx2(const uint32_t* data, size_t n, uint32_t value) {
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(value));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, needle))));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  return i + FindU32Scalar(data + i, n - i, value);
}

}  // namespace xsdf::simd::internal

#else  // x86-64 without an AVX2-capable toolchain: a link-compatible
       // fallback onto the SSE2 body; dispatch never selects it.

namespace xsdf::simd::internal {

bool Avx2Compiled() { return false; }

size_t FindU32Avx2(const uint32_t* data, size_t n, uint32_t value) {
  return FindU32Sse2(data, n, value);
}

}  // namespace xsdf::simd::internal

#endif  // __AVX2__
#endif  // XSDF_SIMD_X86_64
