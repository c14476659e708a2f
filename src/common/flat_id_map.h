#ifndef XSDF_COMMON_FLAT_ID_MAP_H_
#define XSDF_COMMON_FLAT_ID_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xsdf {

/// Open-addressing map from 32-bit ids to 32-bit values, sized by the
/// ids actually inserted. Per-document tables keyed by a global id
/// (label ids, concept ids) use it instead of a vector indexed by id,
/// which would cost the whole id universe on every document. Linear
/// probing over a power-of-two table kept at most half full; the key
/// 0xFFFFFFFF is reserved.
class FlatIdMap {
 public:
  static constexpr uint32_t kEmptyKey = 0xFFFFFFFFu;

  /// The value stored under `key`, first storing `value_if_new` when
  /// the key is absent; `*inserted` says which happened.
  uint32_t FindOrInsert(uint32_t key, uint32_t value_if_new,
                        bool* inserted) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Home(key);
    while (true) {
      auto& [slot_key, slot_value] = slots_[i];
      if (slot_key == key) {
        *inserted = false;
        return slot_value;
      }
      if (slot_key == kEmptyKey) {
        slot_key = key;
        slot_value = value_if_new;
        ++size_;
        *inserted = true;
        return value_if_new;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
  }

 private:
  size_t Home(uint32_t key) const {
    // Fibonacci hashing: the top bits of the product spread consecutive
    // ids across the table.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<std::pair<uint32_t, uint32_t>> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, {kEmptyKey, 0});
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const auto& [key, value] : old) {
      if (key == kEmptyKey) continue;
      size_t i = Home(key);
      while (slots_[i].first != kEmptyKey) i = (i + 1) & (capacity - 1);
      slots_[i] = {key, value};
    }
  }

  std::vector<std::pair<uint32_t, uint32_t>> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace xsdf

#endif  // XSDF_COMMON_FLAT_ID_MAP_H_
