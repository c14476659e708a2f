#include "oracles/graph_walks.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace xsdf::oracles {

std::vector<std::vector<xml::NodeId>> Rings(const xml::LabeledTree& tree,
                                            xml::NodeId center,
                                            int max_distance) {
  std::vector<std::vector<xml::NodeId>> rings;
  rings.push_back({center});
  std::vector<bool> visited(tree.size(), false);
  visited[static_cast<size_t>(center)] = true;
  std::vector<xml::NodeId> frontier = {center};
  for (int d = 1; d <= max_distance && !frontier.empty(); ++d) {
    std::vector<xml::NodeId> next;
    for (xml::NodeId id : frontier) {
      auto visit = [&](xml::NodeId neighbor) {
        if (neighbor != xml::kInvalidNode &&
            !visited[static_cast<size_t>(neighbor)]) {
          visited[static_cast<size_t>(neighbor)] = true;
          next.push_back(neighbor);
        }
      };
      visit(tree.parent(id));
      for (xml::NodeId child : tree.children(id)) visit(child);
    }
    std::sort(next.begin(), next.end());
    rings.push_back(next);
    frontier = rings.back();
  }
  while (static_cast<int>(rings.size()) <= max_distance) {
    rings.emplace_back();  // tree exhausted before max_distance
  }
  return rings;
}

xml::NodeId LowestCommonAncestor(const xml::LabeledTree& tree, xml::NodeId a,
                                 xml::NodeId b) {
  while (tree.depth(a) > tree.depth(b)) a = tree.parent(a);
  while (tree.depth(b) > tree.depth(a)) b = tree.parent(b);
  while (a != b) {
    a = tree.parent(a);
    b = tree.parent(b);
  }
  return a;
}

int Distance(const xml::LabeledTree& tree, xml::NodeId a, xml::NodeId b) {
  xml::NodeId lca = LowestCommonAncestor(tree, a, b);
  return tree.depth(a) + tree.depth(b) - 2 * tree.depth(lca);
}

wordnet::ConceptId LeastCommonSubsumer(const wordnet::SemanticNetwork& network,
                                       wordnet::ConceptId a,
                                       wordnet::ConceptId b) {
  std::unordered_map<wordnet::ConceptId, int> da =
      network.AncestorDistances(a);
  std::unordered_map<wordnet::ConceptId, int> db =
      network.AncestorDistances(b);
  wordnet::ConceptId best = wordnet::kInvalidConcept;
  int best_sum = std::numeric_limits<int>::max();
  int best_depth = -1;
  for (const auto& [ancestor, dist_a] : da) {
    auto it = db.find(ancestor);
    if (it == db.end()) continue;
    int sum = dist_a + it->second;
    int depth = network.Depth(ancestor);
    if (sum < best_sum || (sum == best_sum && depth > best_depth)) {
      best_sum = sum;
      best_depth = depth;
      best = ancestor;
    }
  }
  return best;
}

int HypernymPathLength(const wordnet::SemanticNetwork& network,
                       wordnet::ConceptId a, wordnet::ConceptId b) {
  std::unordered_map<wordnet::ConceptId, int> da =
      network.AncestorDistances(a);
  std::unordered_map<wordnet::ConceptId, int> db =
      network.AncestorDistances(b);
  int best = -1;
  for (const auto& [ancestor, dist_a] : da) {
    auto it = db.find(ancestor);
    if (it == db.end()) continue;
    int sum = dist_a + it->second;
    if (best < 0 || sum < best) best = sum;
  }
  return best;
}

}  // namespace xsdf::oracles
