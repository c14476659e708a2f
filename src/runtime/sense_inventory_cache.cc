#include "runtime/sense_inventory_cache.h"

namespace xsdf::runtime {

SenseInventoryCache::SenseInventoryCache(size_t capacity,
                                         size_t shard_count)
    : cache_(capacity, shard_count) {}

std::shared_ptr<const core::SenseEntry> SenseInventoryCache::Entry(
    core::LabelSpace& space, uint32_t label_id) {
  return cache_.GetOrCompute(label_id, [&] {
    auto entry = std::make_shared<core::SenseEntry>();
    entry->candidates = space.Senses(label_id).candidates;
    return std::shared_ptr<const core::SenseEntry>(std::move(entry));
  });
}

}  // namespace xsdf::runtime
