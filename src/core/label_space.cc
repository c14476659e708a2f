#include "core/label_space.h"

#include <mutex>

#include "common/strings.h"

namespace xsdf::core {

namespace {

/// The lemma tokens that carry a label's senses (see LabelSenses).
std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label) {
  if (label.empty()) return {};
  if (network.Contains(label)) return {label};
  if (label.find('_') == std::string::npos) return {label};
  std::vector<std::string> tokens;
  for (std::string& token : StrSplit(label, '_')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  return tokens;
}

/// Eq. 1's polysemy factor of one token with `senses` senses.
double TokenPolysemy(size_t senses, int max_senses) {
  if (max_senses <= 1) return 0.0;
  if (senses <= 1) return 0.0;  // unknown or monosemous: unambiguous
  return static_cast<double>(senses - 1) /
         static_cast<double>(max_senses - 1);
}

}  // namespace

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
  // Resolve outside the lock (splitting the label and looking up its
  // tokens may allocate and hash); two racing threads compute the same
  // pure value and the first insert wins.
  auto resolved = ResolveSenses(id);
  std::unique_lock<std::shared_mutex> lock(senses_mu_);
  auto [it, inserted] = senses_.emplace(id, std::move(resolved));
  if (inserted) resolved_count_.fetch_add(1, std::memory_order_relaxed);
  return *it->second;
}

std::unique_ptr<LabelSenses> LabelSpace::ResolveSenses(uint32_t id) {
  auto resolved = std::make_unique<LabelSenses>();
  const std::vector<std::string> tokens =
      LabelSenseTokens(*network_, Spelling(id));
  if (tokens.empty()) return resolved;
  const int max_senses = network_->MaxPolysemy();
  double polysemy_sum = 0.0;
  for (const std::string& token : tokens) {
    const std::vector<wordnet::ConceptId>& senses = network_->Senses(token);
    polysemy_sum += TokenPolysemy(senses.size(), max_senses);
    if (!senses.empty()) {
      resolved->token_senses.emplace_back(senses.data(), senses.size());
    }
  }
  resolved->polysemy = polysemy_sum / static_cast<double>(tokens.size());
  return resolved;
}

size_t LabelSpace::overflow_size() const {
  std::shared_lock<std::shared_mutex> lock(overflow_mu_);
  return overflow_.size();
}

size_t LabelSpace::resolved_sense_count() const {
  return resolved_count_.load(std::memory_order_relaxed);
}

Status CheckLabelSource(const xml::LabeledTree& tree,
                        const LabelSpace& space) {
  if (tree.label_source() == space.serial()) return Status::Ok();
  return Status::InvalidArgument(
      "tree was not built through this label space");
}

}  // namespace xsdf::core
