#ifndef XSDF_TESTS_ORACLES_GRAPH_WALKS_H_
#define XSDF_TESTS_ORACLES_GRAPH_WALKS_H_

#include <vector>

#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

/// Breadth-first walks over a labeled tree and over the hypernym
/// taxonomy, as first written. Production reads the same facts from
/// precomputed structures: core::BuildXmlIdSphere merges a node's rings
/// without a visited set, and sim::HypernymPathLength and the LCS
/// search of the Wu-Palmer/Resnik/Lin kernels intersect the finalized
/// ancestor rows (SemanticNetwork::Ancestors). Tests and fuzz
/// harnesses hold those to these walks.
namespace xsdf::oracles {

/// Nodes grouped by distance from `center`: element r is the XML ring
/// R_r(center) (paper Definition 4), in increasing node id; element 0
/// is {center}. Rings are computed up to `max_distance` inclusive by
/// BFS over the undirected tree adjacency; rings past the tree's
/// extent are empty.
std::vector<std::vector<xml::NodeId>> Rings(const xml::LabeledTree& tree,
                                            xml::NodeId center,
                                            int max_distance);

/// Lowest common ancestor of `a` and `b`.
xml::NodeId LowestCommonAncestor(const xml::LabeledTree& tree, xml::NodeId a,
                                 xml::NodeId b);

/// Number of edges on the path between `a` and `b` (Definition 4's
/// Dist), computed via the lowest common ancestor.
int Distance(const xml::LabeledTree& tree, xml::NodeId a, xml::NodeId b);

/// Least common subsumer of `a` and `b` minimizing the summed path
/// length (ties broken toward greater depth), from two
/// SemanticNetwork::AncestorDistances walks. kInvalidConcept when the
/// two concepts share no ancestor.
wordnet::ConceptId LeastCommonSubsumer(const wordnet::SemanticNetwork& network,
                                       wordnet::ConceptId a,
                                       wordnet::ConceptId b);

/// Length (edges) of the shortest hypernym path from `a` to `b` through
/// a common ancestor, from the same two walks; -1 when unrelated.
int HypernymPathLength(const wordnet::SemanticNetwork& network,
                       wordnet::ConceptId a, wordnet::ConceptId b);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_GRAPH_WALKS_H_
