#ifndef XSDF_TESTS_ORACLES_SEMANTIC_TREE_DOM_H_
#define XSDF_TESTS_ORACLES_SEMANTIC_TREE_DOM_H_

#include <string>

#include "core/disambiguator.h"
#include "wordnet/semantic_network.h"

/// Test-only reference implementations that production code replaced
/// with faster equivalents; tests hold the production code to them
/// byte for byte.
namespace xsdf::oracles {

/// The DOM-building semantic-tree writer: builds one <node> element per
/// tree node (label, kind and, when disambiguated, concept, concept_id,
/// gloss, concept2, concept2_id, score attributes) under a
/// <semantic_tree> root, then prints the document with SerializeDom().
/// Within the default ParseLimits depth cap, core::SemanticTreeToXml()
/// must produce the same bytes without the DOM. Deeper trees differ by
/// design: the production writer clamps its indentation there, and
/// this one indents every level.
std::string SemanticTreeToXmlViaDom(const core::SemanticTree& semantic_tree,
                                    const wordnet::SemanticNetwork& network);

}  // namespace xsdf::oracles

#endif  // XSDF_TESTS_ORACLES_SEMANTIC_TREE_DOM_H_
