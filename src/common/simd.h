#ifndef XSDF_COMMON_SIMD_H_
#define XSDF_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

/// Runtime-dispatched SIMD kernels for the flat uint32 id arrays the
/// hot similarity paths run on (DESIGN.md §12): first-occurrence
/// search, sorted-set intersection (early-exit and full-positions
/// forms), and a stride-2 intersect for the interleaved
/// AncestorEntry{id, distance} CSR rows.
///
/// Dispatch contract: the level is resolved once per process from
/// CPUID (`__builtin_cpu_supports`), clamped by what the build
/// compiled, and overridable *downward* via the `XSDF_SIMD`
/// environment variable (`scalar` / `sse2` / `avx2`) or ForceLevel()
/// in tests. Every kernel returns exactly the result of its scalar
/// reference at every level — these are integer match-finding
/// primitives with no floating point, so callers that keep their FP
/// accumulation in scalar program order stay bit-identical across
/// dispatch levels by construction.
namespace xsdf::simd {

enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Best level this CPU *and this build* support (env not consulted).
Level DetectedLevel();

/// The level the kernels dispatch on: DetectedLevel() lowered by
/// XSDF_SIMD if set (unknown values and upgrades are ignored), or by
/// the last ForceLevel() call. Resolved lazily, then cached.
Level ActiveLevel();

/// Overrides ActiveLevel() (clamped to DetectedLevel()); for the
/// equivalence tests that run every kernel at every level in-process.
void ForceLevel(Level level);

/// "scalar" / "sse2" / "avx2" — recorded into every BENCH_*.json.
const char* LevelName(Level level);

/// Out-of-line dispatched body of FindU32 (use FindU32).
size_t FindU32Dispatch(const uint32_t* data, size_t n, uint32_t value);

/// Index of the first element of data[0..n) equal to `value`, or `n`.
/// (The first-occurrence dedup scan of IdContextVector::Assign.)
/// Scans below one AVX2 block stay inline — the dedup loop runs mostly
/// over a handful of entries, where the cross-TU dispatch call costs
/// more than the scan — and longer scans take the dispatched SIMD body.
/// The returned index is identical either way.
inline size_t FindU32(const uint32_t* data, size_t n, uint32_t value) {
  if (n < 16) {
    for (size_t i = 0; i < n; ++i) {
      if (data[i] == value) return i;
    }
    return n;
  }
  return FindU32Dispatch(data, n, value);
}

/// True when two strictly increasing id sets share any element (the
/// gloss-bag early-exit probe).
bool SortedIntersectNonEmptyU32(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb);

/// Full intersection of two strictly increasing id sets: writes the
/// matching *positions* into out_a/out_b (each must hold min(na, nb);
/// out_b may be null) in ascending order and returns the match count.
/// out_a[k] and out_b[k] index the same common value.
size_t SortedIntersectPositionsU32(const uint32_t* a, size_t na,
                                   const uint32_t* b, size_t nb,
                                   uint32_t* out_a, uint32_t* out_b);

/// Same, for arrays whose keys sit at even indices of an interleaved
/// (key, payload) uint32 sequence — the in-memory layout of the
/// id-sorted AncestorEntry CSR rows. `na`/`nb` count *elements*
/// (key-payload pairs), and positions are element indices. The
/// deinterleave happens in-register, so the AoS snapshot format needs
/// no layout change.
size_t SortedIntersectPositionsStride2(const uint32_t* a, size_t na,
                                       const uint32_t* b, size_t nb,
                                       uint32_t* out_a, uint32_t* out_b);

}  // namespace xsdf::simd

#endif  // XSDF_COMMON_SIMD_H_
