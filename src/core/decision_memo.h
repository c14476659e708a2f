#ifndef XSDF_CORE_DECISION_MEMO_H_
#define XSDF_CORE_DECISION_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/context_vector.h"

namespace xsdf::core {

/// What disambiguating one target decided: the chosen candidate's
/// index into its label's candidate list, its score, and the margin
/// over the runner-up (0 with a single candidate).
struct Decision {
  uint32_t chosen = 0;
  double score = 0.0;
  double margin = 0.0;
};

/// A bounded map from a target's ordered sphere to its Decision.
///
/// A target's sense is a pure function of its sphere neighbourhood
/// (paper Definitions 8 and 10, Eq. 13): the members' label ids and
/// distances, center first. The center's label fixes the candidate
/// list, and the radius and options are fixed per Disambiguator, so
/// for one Disambiguator equal keys mean equal decisions. The key is
/// the sphere's label ids in member order with a separator word before
/// each ring, so it carries every member's distance too.
///
/// Entries store the key's 64-bit hash and its words; a lookup compares
/// every word on a hash match, so a collision is a miss, never a wrong
/// answer. The memo owns one fixed budget of 1 MiB (a 512 KiB slot
/// table plus a 512 KiB key arena), allocated on first use and never
/// regrown: when either part is full it clears, and a key larger than
/// the arena is not stored. Not thread-safe; each Disambiguator owns
/// one.
class DecisionMemo {
 public:
  /// Slot table size (a power of two); at most half the slots are used.
  static constexpr size_t kSlots = size_t{1} << 14;
  /// Key arena size in 32-bit words; each entry also stores its chosen
  /// index there, so the longest storable key is kKeyWords - 1 words.
  static constexpr size_t kKeyWords = size_t{1} << 17;

  /// Rebuilds `*key` as the memo key of `sphere`, whose members are
  /// stored ring by ring.
  static void KeyOf(const IdSphere& sphere, std::vector<uint32_t>* key);

  /// The hash Find() and Insert() expect for `key`.
  static uint64_t Hash(std::span<const uint32_t> key);

  /// The decision stored under `key` (whose hash is `hash`), or none.
  std::optional<Decision> Find(uint64_t hash,
                               std::span<const uint32_t> key) const;

  /// Stores `decision` under `key` (whose hash is `hash`), which must
  /// not be stored yet; clears the memo first when it is full. A key
  /// that does not fit the arena is not stored.
  void Insert(uint64_t hash, std::span<const uint32_t> key,
              const Decision& decision);

  /// Number of stored decisions.
  size_t size() const { return size_; }

 private:
  /// 32 bytes; the chosen index follows the key in the arena.
  struct Slot {
    uint64_t hash = 0;
    uint32_t key_begin = 0;  ///< into arena_
    uint32_t key_size = 0;   ///< 0: empty (every key holds the center)
    double score = 0.0;
    double margin = 0.0;
  };
  static_assert(sizeof(Slot) == 32);

  void Clear();

  std::unique_ptr<Slot[]> slots_;       ///< kSlots, allocated on first use
  std::unique_ptr<uint32_t[]> arena_;   ///< kKeyWords
  size_t size_ = 0;
  size_t arena_used_ = 0;
};

}  // namespace xsdf::core

#endif  // XSDF_CORE_DECISION_MEMO_H_
