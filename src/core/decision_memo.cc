#include "core/decision_memo.h"

#include <algorithm>

namespace xsdf::core {

namespace {

/// Ends a ring in a key. Label ids are interner indices, far below it.
constexpr uint32_t kRingSeparator = 0xFFFFFFFFu;

}  // namespace

void DecisionMemo::KeyOf(const IdSphere& sphere, std::vector<uint32_t>* key) {
  // One separator per distance step: as many as the largest distance.
  const size_t members = sphere.label_ids.size();
  const int32_t separators =
      members == 0 ? 0
                   : *std::max_element(sphere.distances.begin(),
                                       sphere.distances.end());
  key->resize(members + static_cast<size_t>(separators));
  uint32_t* out = key->data();
  int32_t distance = 0;
  for (size_t m = 0; m < members; ++m) {
    for (; distance < sphere.distances[m]; ++distance) {
      *out++ = kRingSeparator;
    }
    *out++ = sphere.label_ids[m];
  }
}

uint64_t DecisionMemo::Hash(std::span<const uint32_t> key) {
  // Two words per multiply, then the SplitMix64 finalizer.
  uint64_t h = 0x9E3779B97F4A7C15ULL * (key.size() + 1);
  size_t i = 0;
  for (; i + 1 < key.size(); i += 2) {
    const uint64_t pair = (uint64_t{key[i + 1]} << 32) | key[i];
    h = (h ^ pair) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  if (i < key.size()) h = (h ^ key[i]) * 0xFF51AFD7ED558CCDULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

std::optional<Decision> DecisionMemo::Find(
    uint64_t hash, std::span<const uint32_t> key) const {
  if (slots_ == nullptr) return std::nullopt;
  for (size_t i = hash & (kSlots - 1);; i = (i + 1) & (kSlots - 1)) {
    const Slot& slot = slots_[i];
    if (slot.key_size == 0) return std::nullopt;
    const uint32_t* stored = arena_.get() + slot.key_begin;
    if (slot.hash == hash && slot.key_size == key.size() &&
        std::equal(key.begin(), key.end(), stored)) {
      return Decision{stored[key.size()], slot.score, slot.margin};
    }
  }
}

void DecisionMemo::Insert(uint64_t hash, std::span<const uint32_t> key,
                          const Decision& decision) {
  const size_t words = key.size() + 1;  // the key, then the chosen index
  if (key.empty() || words > kKeyWords) return;
  if (slots_ == nullptr) {
    slots_ = std::make_unique<Slot[]>(kSlots);
    arena_ = std::make_unique_for_overwrite<uint32_t[]>(kKeyWords);
  }
  if (2 * (size_ + 1) > kSlots || arena_used_ + words > kKeyWords) Clear();
  size_t i = hash & (kSlots - 1);
  while (slots_[i].key_size != 0) i = (i + 1) & (kSlots - 1);
  uint32_t* stored = arena_.get() + arena_used_;
  std::copy(key.begin(), key.end(), stored);
  stored[key.size()] = decision.chosen;
  slots_[i] = {hash, static_cast<uint32_t>(arena_used_),
               static_cast<uint32_t>(key.size()), decision.score,
               decision.margin};
  arena_used_ += words;
  ++size_;
}

void DecisionMemo::Clear() {
  std::fill_n(slots_.get(), kSlots, Slot());
  size_ = 0;
  arena_used_ = 0;
}

}  // namespace xsdf::core
