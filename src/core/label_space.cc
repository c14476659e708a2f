#include "core/label_space.h"

#include <mutex>

#include "core/ambiguity.h"
#include "core/tree_builder.h"

namespace xsdf::core {

LabelSpace::LabelSpace(const wordnet::SemanticNetwork* network)
    : network_(network),
      network_size_(network->interner().size()),
      serial_(next_serial_.fetch_add(1, std::memory_order_relaxed)),
      network_senses_(network->interner().size()) {}

LabelSpace::~LabelSpace() {
  for (auto& slot : network_senses_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

uint32_t LabelSpace::Resolve(std::string_view label) {
  // The network interner is frozen after FinalizeFrequencies(), so this
  // is a lock-free exact lookup — the common case for real corpora.
  uint32_t network_id = network_->interner().Find(label);
  if (network_id != TokenInterner::kNotFound) return network_id;
  {
    std::shared_lock<std::shared_mutex> lock(overflow_mu_);
    uint32_t id = overflow_.Find(label);
    if (id != TokenInterner::kNotFound) {
      return static_cast<uint32_t>(network_size_) + id;
    }
  }
  std::unique_lock<std::shared_mutex> lock(overflow_mu_);
  return static_cast<uint32_t>(network_size_) + overflow_.Intern(label);
}

uint32_t LabelSpace::Find(std::string_view label) const {
  uint32_t network_id = network_->interner().Find(label);
  if (network_id != TokenInterner::kNotFound) return network_id;
  std::shared_lock<std::shared_mutex> lock(overflow_mu_);
  uint32_t id = overflow_.Find(label);
  if (id == TokenInterner::kNotFound) return TokenInterner::kNotFound;
  return static_cast<uint32_t>(network_size_) + id;
}

const std::string& LabelSpace::Spelling(uint32_t id) const {
  if (id < network_size_) return network_->interner().Spelling(id);
  std::shared_lock<std::shared_mutex> lock(overflow_mu_);
  // Spellings live in interner map nodes, whose addresses are stable,
  // so the reference outlives the lock.
  return overflow_.Spelling(id - static_cast<uint32_t>(network_size_));
}

const LabelSenses& LabelSpace::Senses(uint32_t id) {
  if (id < network_size_) {
    // Hot path: one acquire load per sphere label once resolved.
    std::atomic<const LabelSenses*>& slot = network_senses_[id];
    const LabelSenses* cached = slot.load(std::memory_order_acquire);
    if (cached != nullptr) return *cached;
    auto resolved = ResolveSenses(id);
    const LabelSenses* expected = nullptr;
    if (slot.compare_exchange_strong(expected, resolved.get(),
                                     std::memory_order_acq_rel)) {
      resolved_count_.fetch_add(1, std::memory_order_relaxed);
      return *resolved.release();  // the slot now owns it
    }
    return *expected;  // lost the race; `resolved` is discarded
  }
  {
    std::shared_lock<std::shared_mutex> lock(senses_mu_);
    auto it = senses_.find(id);
    if (it != senses_.end()) return *it->second;
  }
  // Resolve outside the lock (Senses()/LabelSenseTokens() may allocate
  // and hash); two racing threads compute the same pure value and the
  // first insert wins.
  auto resolved = ResolveSenses(id);
  std::unique_lock<std::shared_mutex> lock(senses_mu_);
  auto [it, inserted] = senses_.emplace(id, std::move(resolved));
  if (inserted) resolved_count_.fetch_add(1, std::memory_order_relaxed);
  return *it->second;
}

std::unique_ptr<LabelSenses> LabelSpace::ResolveSenses(uint32_t id) {
  auto resolved = std::make_unique<LabelSenses>();
  const std::string& spelling = Spelling(id);
  for (const std::string& token : LabelSenseTokens(*network_, spelling)) {
    const std::vector<wordnet::ConceptId>& senses = network_->Senses(token);
    if (!senses.empty()) {
      resolved->token_senses.emplace_back(senses.data(), senses.size());
    }
  }
  resolved->polysemy = AmbiguityPolysemy(*network_, spelling);
  return resolved;
}

size_t LabelSpace::overflow_size() const {
  std::shared_lock<std::shared_mutex> lock(overflow_mu_);
  return overflow_.size();
}

size_t LabelSpace::resolved_sense_count() const {
  return resolved_count_.load(std::memory_order_relaxed);
}

}  // namespace xsdf::core
