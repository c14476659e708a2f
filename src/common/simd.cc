#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/simd_internal.h"

#if defined(XSDF_SIMD_X86_64)
#include <emmintrin.h>
#endif

namespace xsdf::simd {

namespace {

Level Detect() {
#if defined(XSDF_SIMD_X86_64)
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2") && internal::Avx2Compiled()) {
    return Level::kAvx2;
  }
#endif
  return Level::kSse2;  // x86-64 baseline
#else
  return Level::kScalar;
#endif
}

/// XSDF_SIMD can only lower the level: an upgrade past what the CPU
/// (or build) supports would dispatch into illegal instructions, so
/// such requests — and unrecognized values — keep the detected level.
Level ApplyEnv(Level detected) {
  const char* env = std::getenv("XSDF_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  Level requested = detected;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Level::kScalar;
  } else if (std::strcmp(env, "sse2") == 0) {
    requested = Level::kSse2;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Level::kAvx2;
  }
  return requested <= detected ? requested : detected;
}

std::atomic<int> g_active{-1};  // -1 = not yet resolved

}  // namespace

Level DetectedLevel() {
  static const Level detected = Detect();
  return detected;
}

Level ActiveLevel() {
  int level = g_active.load(std::memory_order_relaxed);
  if (level >= 0) return static_cast<Level>(level);
  Level resolved = ApplyEnv(DetectedLevel());
  g_active.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

void ForceLevel(Level level) {
  if (level > DetectedLevel()) level = DetectedLevel();
  g_active.store(static_cast<int>(level), std::memory_order_relaxed);
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

#if defined(XSDF_SIMD_X86_64)

namespace internal {

size_t FindU32Sse2(const uint32_t* data, size_t n, uint32_t value) {
  const __m128i needle = _mm_set1_epi32(static_cast<int>(value));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    unsigned mask = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, needle))));
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
  return i + FindU32Scalar(data + i, n - i, value);
}

bool IntersectNonEmptySse2(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb) {
  // Block sweep: compare a 4-key block of one set against the four
  // rotations of the other's, stop on any equal lane, else advance
  // whichever block has the smaller maximum (both on ties). The scalar
  // tail resumes where the blocks ran out.
  size_t i = 0;
  size_t j = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i eq = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi32(va, vb),
                     _mm_cmpeq_epi32(va, _mm_shuffle_epi32(
                                             vb, _MM_SHUFFLE(0, 3, 2, 1)))),
        _mm_or_si128(_mm_cmpeq_epi32(va, _mm_shuffle_epi32(
                                             vb, _MM_SHUFFLE(1, 0, 3, 2))),
                     _mm_cmpeq_epi32(va, _mm_shuffle_epi32(
                                             vb, _MM_SHUFFLE(2, 1, 0, 3)))));
    if (_mm_movemask_epi8(eq) != 0) return true;
    uint32_t amax = a[i + 3];
    uint32_t bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  return IntersectNonEmptyScalarFrom(a, na, b, nb, i, j);
}

}  // namespace internal

#endif  // XSDF_SIMD_X86_64

size_t FindU32Dispatch(const uint32_t* data, size_t n, uint32_t value) {
#if defined(XSDF_SIMD_X86_64)
  switch (ActiveLevel()) {
    case Level::kAvx2:
      return internal::FindU32Avx2(data, n, value);
    case Level::kSse2:
      return internal::FindU32Sse2(data, n, value);
    case Level::kScalar:
      break;
  }
#endif
  return internal::FindU32Scalar(data, n, value);
}

// The intersection probe has no AVX2 body: at AVX2 it runs the SSE2 one.
bool SortedIntersectNonEmptyU32(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb) {
#if defined(XSDF_SIMD_X86_64)
  if (ActiveLevel() >= Level::kSse2) {
    return internal::IntersectNonEmptySse2(a, na, b, nb);
  }
#endif
  return internal::IntersectNonEmptyScalarFrom(a, na, b, nb, 0, 0);
}

}  // namespace xsdf::simd
