#include "eval/gold.h"

#include <algorithm>

#include "common/rng.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::eval {

namespace {

/// Scores one node against the gold map; returns {in_gold, attempted,
/// correct} increments.
void ScoreNode(const core::SemanticTree& result, const GoldMap& gold,
               xml::NodeId id, int* gold_total, int* attempted,
               int* correct) {
  auto gold_it = gold.find(std::string(result.tree.label(id)));
  if (gold_it == gold.end()) return;
  ++*gold_total;
  const core::SenseAssignment* found = result.assignments.find(id);
  if (found == nullptr) return;
  ++*attempted;
  const core::SenseAssignment& assignment = *found;
  if (assignment.sense.primary == gold_it->second ||
      (assignment.sense.is_compound() &&
       assignment.sense.secondary == gold_it->second)) {
    ++*correct;
  }
}

}  // namespace

Result<GoldMap> ResolveGold(
    const std::unordered_map<std::string, std::string>& raw_gold) {
  GoldMap gold;
  for (const auto& [label, key] : raw_gold) {
    auto id = wordnet::MiniWordNetConceptByKey(key);
    if (!id.ok()) return id.status();
    gold.emplace(label, *id);
  }
  return gold;
}

PrfScores ScoreAgainstGold(const core::SemanticTree& result,
                           const GoldMap& gold) {
  int gold_total = 0;
  int attempted = 0;
  int correct = 0;
  for (xml::NodeId id : result.tree.ids()) {
    ScoreNode(result, gold, id, &gold_total, &attempted, &correct);
  }
  return ComputePrf(gold_total, attempted, correct);
}

PrfScores ScoreOnNodes(const core::SemanticTree& result,
                       const GoldMap& gold,
                       const std::vector<xml::NodeId>& nodes) {
  int gold_total = 0;
  int attempted = 0;
  int correct = 0;
  for (xml::NodeId id : nodes) {
    ScoreNode(result, gold, id, &gold_total, &attempted, &correct);
  }
  return ComputePrf(gold_total, attempted, correct);
}

std::vector<xml::NodeId> SampleGoldNodes(const xml::LabeledTree& tree,
                                         const GoldMap& gold, int count,
                                         int structure_bias,
                                         uint64_t seed) {
  struct Weighted {
    xml::NodeId id;
    int weight;
  };
  std::vector<Weighted> pool;
  for (xml::NodeId id : tree.ids()) {
    if (gold.find(std::string(tree.label(id))) == gold.end()) continue;
    int weight =
        tree.kind(id) == xml::TreeNodeKind::kToken ? 1 : structure_bias;
    pool.push_back({id, weight});
  }
  Rng rng(seed);
  std::vector<xml::NodeId> sampled;
  while (static_cast<int>(sampled.size()) < count && !pool.empty()) {
    long total = 0;
    for (const Weighted& w : pool) total += w.weight;
    long pick = static_cast<long>(rng.UniformInt(
        static_cast<uint64_t>(total)));
    size_t index = 0;
    for (; index < pool.size(); ++index) {
      pick -= pool[index].weight;
      if (pick < 0) break;
    }
    sampled.push_back(pool[index].id);
    pool.erase(pool.begin() + static_cast<long>(index));
  }
  std::sort(sampled.begin(), sampled.end());
  return sampled;
}

}  // namespace xsdf::eval
