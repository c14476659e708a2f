#include "sim/conceptual_density.h"

#include <algorithm>

#include "common/check.h"
#include "sim/kernels.h"

namespace xsdf::sim {

namespace {

double DensityAt(uint32_t children, uint32_t descendants) {
  // descendants >= 1 always (every concept's closure contains itself).
  double density = (1.0 + static_cast<double>(children)) /
                   static_cast<double>(descendants);
  return density > 1.0 ? 1.0 : density;
}

}  // namespace

std::shared_ptr<const ConceptualDensityMeasure::SubtreeTable>
ConceptualDensityMeasure::TableFor(
    const wordnet::SemanticNetwork& network) const {
  std::lock_guard<std::mutex> lock(table_mu_);
  if (table_ == nullptr || table_->network != &network) {
    auto table = std::make_shared<SubtreeTable>();
    table->network = &network;
    const size_t n = network.size();
    table->descendants.assign(n, 0);
    table->children.assign(n, 0);
    for (size_t j = 0; j < n; ++j) {
      for (const wordnet::AncestorEntry& e :
           network.Ancestors(static_cast<wordnet::ConceptId>(j))) {
        ++table->descendants[static_cast<size_t>(e.id)];
        if (e.distance == 1) ++table->children[static_cast<size_t>(e.id)];
      }
    }
    table_ = std::move(table);
  }
  return table_;
}

double ConceptualDensityMeasure::Similarity(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) const {
  XSDF_DCHECK(network.finalized(), "similarity needs a finalized network");
  if (a == b) return 1.0;
  std::shared_ptr<const SubtreeTable> table = TableFor(network);
  // Max over the common ancestors is order-independent.
  double best = 0.0;
  ForEachCommonAncestor(
      network.Ancestors(a), network.Ancestors(b),
      [&](const wordnet::AncestorEntry& ea, const wordnet::AncestorEntry&) {
        const size_t anc = static_cast<size_t>(ea.id);
        best = std::max(
            best, DensityAt(table->children[anc], table->descendants[anc]));
      });
  return best;
}

}  // namespace xsdf::sim
