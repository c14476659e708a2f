#include "xml/tree_stats.h"

#include <algorithm>

namespace xsdf::xml {

TreeShape ComputeTreeShape(const LabeledTree& tree) {
  TreeShape shape;
  shape.node_count = static_cast<int>(tree.size());
  if (tree.empty()) return shape;
  double depth_sum = 0.0;
  double fan_out_sum = 0.0;
  double density_sum = 0.0;
  for (NodeId id : tree.ids()) {
    depth_sum += tree.depth(id);
    fan_out_sum += tree.fan_out(id);
    int density = tree.DistinctChildLabelCount(id);
    density_sum += density;
    shape.max_depth = std::max(shape.max_depth, tree.depth(id));
    shape.max_fan_out = std::max(shape.max_fan_out, tree.fan_out(id));
    shape.max_density = std::max(shape.max_density, density);
  }
  double n = static_cast<double>(tree.size());
  shape.avg_depth = depth_sum / n;
  shape.avg_fan_out = fan_out_sum / n;
  shape.avg_density = density_sum / n;
  return shape;
}

double StructDegree(const LabeledTree& tree, NodeId id,
                    const StructDegreeWeights& weights) {
  int max_depth = tree.MaxDepth();
  int max_fan_out = tree.MaxFanOut();
  int max_density = tree.MaxDensity();
  double depth_term =
      max_depth > 0 ? static_cast<double>(tree.depth(id)) / max_depth : 0.0;
  double fan_out_term =
      max_fan_out > 0 ? static_cast<double>(tree.fan_out(id)) / max_fan_out
                      : 0.0;
  double density_term =
      max_density > 0
          ? static_cast<double>(tree.DistinctChildLabelCount(id)) /
                max_density
          : 0.0;
  return weights.depth * depth_term + weights.fan_out * fan_out_term +
         weights.density * density_term;
}

double AverageStructDegree(const LabeledTree& tree,
                           const StructDegreeWeights& weights) {
  if (tree.empty()) return 0.0;
  double sum = 0.0;
  for (NodeId id : tree.ids()) {
    sum += StructDegree(tree, id, weights);
  }
  return sum / static_cast<double>(tree.size());
}

}  // namespace xsdf::xml
