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

namespace {

inline unsigned Rotl4(unsigned mask, unsigned s) {
  return ((mask << s) | (mask >> (4 - s))) & 0xFu;
}

inline uint32_t Ctz(unsigned mask) {
  return static_cast<uint32_t>(__builtin_ctz(mask));
}

/// Block-wise intersection of two strictly increasing key sequences:
/// all-pairs compare of one 4-key block against the rotations of the
/// other, then advance whichever block has the smaller maximum (both
/// on ties) — the classic branch-light SIMD set-intersection step.
/// `Emit(amask, bmask, i, j)` receives the per-block match masks;
/// returning true stops the sweep (early exit). Returns the (i, j)
/// element positions the scalar tail must resume from.
template <typename Emit>
inline void BlockSweep4(const uint32_t* a, size_t na, const uint32_t* b,
                        size_t nb, size_t* pi, size_t* pj, Emit&& emit) {
  size_t i = *pi, j = *pj;
  while (i + 4 <= na && j + 4 <= nb) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    unsigned amask = 0;
    unsigned bmask = 0;
    unsigned m = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, vb))));
    amask |= m;
    bmask |= m;
    m = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(
        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))))));
    amask |= m;
    bmask |= Rotl4(m, 1);
    m = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(
        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))))));
    amask |= m;
    bmask |= Rotl4(m, 2);
    m = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(
        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))))));
    amask |= m;
    bmask |= Rotl4(m, 3);
    if (amask != 0 && emit(amask, bmask, i, j)) {
      *pi = i;
      *pj = j;
      return;
    }
    uint32_t amax = a[i + 3];
    uint32_t bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  *pi = i;
  *pj = j;
}

}  // namespace

size_t FindU32Sse2(const uint32_t* data, size_t n, uint32_t value) {
  const __m128i needle = _mm_set1_epi32(static_cast<int>(value));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    unsigned mask = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, needle))));
    if (mask != 0) return i + Ctz(mask);
  }
  return i + FindU32Scalar(data + i, n - i, value);
}

bool IntersectNonEmptySse2(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb) {
  size_t i = 0, j = 0;
  bool hit = false;
  BlockSweep4(a, na, b, nb, &i, &j, [&](unsigned, unsigned, size_t, size_t) {
    hit = true;
    return true;  // early exit on the first match
  });
  if (hit) return true;
  return IntersectNonEmptyScalarFrom(a, na, b, nb, i, j);
}

size_t IntersectPositionsSse2(const uint32_t* a, size_t na,
                              const uint32_t* b, size_t nb, uint32_t* out_a,
                              uint32_t* out_b) {
  size_t i = 0, j = 0, k = 0;
  BlockSweep4(a, na, b, nb, &i, &j,
              [&](unsigned amask, unsigned bmask, size_t bi, size_t bj) {
                // Matched values biject between the two strict sets, so
                // the ascending set bits of amask and bmask pair up in
                // order.
                while (amask != 0) {
                  out_a[k] = static_cast<uint32_t>(bi) + Ctz(amask);
                  if (out_b != nullptr) {
                    out_b[k] = static_cast<uint32_t>(bj) + Ctz(bmask);
                  }
                  amask &= amask - 1;
                  bmask &= bmask - 1;
                  ++k;
                }
                return false;  // full sweep
              });
  return IntersectPositionsScalarFrom<1>(a, na, b, nb, out_a, out_b, i, j,
                                         k);
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

// The intersects have no AVX2 body: at AVX2 they run the SSE2 one.
bool SortedIntersectNonEmptyU32(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb) {
#if defined(XSDF_SIMD_X86_64)
  if (ActiveLevel() >= Level::kSse2) {
    return internal::IntersectNonEmptySse2(a, na, b, nb);
  }
#endif
  return internal::IntersectNonEmptyScalarFrom(a, na, b, nb, 0, 0);
}

size_t SortedIntersectPositionsU32(const uint32_t* a, size_t na,
                                   const uint32_t* b, size_t nb,
                                   uint32_t* out_a, uint32_t* out_b) {
#if defined(XSDF_SIMD_X86_64)
  if (ActiveLevel() >= Level::kSse2) {
    return internal::IntersectPositionsSse2(a, na, b, nb, out_a, out_b);
  }
#endif
  return internal::IntersectPositionsScalarFrom<1>(a, na, b, nb, out_a,
                                                   out_b, 0, 0, 0);
}

size_t SortedIntersectPositionsStride2(const uint32_t* a, size_t na,
                                       const uint32_t* b, size_t nb,
                                       uint32_t* out_a, uint32_t* out_b) {
  return internal::IntersectPositionsScalarFrom<2>(a, na, b, nb, out_a,
                                                   out_b, 0, 0, 0);
}

}  // namespace xsdf::simd
