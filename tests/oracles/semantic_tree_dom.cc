#include "oracles/semantic_tree_dom.h"

#include "common/strings.h"
#include "oracles/dom.h"

namespace xsdf::oracles {

namespace {

void AppendNodeXml(const core::SemanticTree& semantic_tree,
                   const wordnet::SemanticNetwork& network,
                   xml::NodeId id, Document* doc, Node* parent) {
  const xml::LabeledTree& tree = semantic_tree.tree;
  Node* element = doc->AddElement(parent, "node");
  element->AddAttribute("label", std::string(tree.label(id)));
  switch (tree.kind(id)) {
    case xml::TreeNodeKind::kElement:
      element->AddAttribute("kind", "element");
      break;
    case xml::TreeNodeKind::kAttribute:
      element->AddAttribute("kind", "attribute");
      break;
    case xml::TreeNodeKind::kToken:
      element->AddAttribute("kind", "token");
      break;
  }
  if (const core::SenseAssignment* found =
          semantic_tree.assignments.find(id)) {
    const core::SenseAssignment& assignment = *found;
    const wordnet::Concept& c =
        network.GetConcept(assignment.sense.primary);
    element->AddAttribute("concept", c.label());
    element->AddAttribute("concept_id",
                          std::to_string(assignment.sense.primary));
    element->AddAttribute("gloss", c.gloss);
    if (assignment.sense.is_compound()) {
      const wordnet::Concept& c2 =
          network.GetConcept(assignment.sense.secondary);
      element->AddAttribute("concept2", c2.label());
      element->AddAttribute("concept2_id",
                            std::to_string(assignment.sense.secondary));
    }
    element->AddAttribute("score", StrFormat("%.4f", assignment.score));
  }
  for (xml::NodeId child : tree.children(id)) {
    AppendNodeXml(semantic_tree, network, child, doc, element);
  }
}

}  // namespace

std::string SemanticTreeToXmlViaDom(const core::SemanticTree& semantic_tree,
                                    const wordnet::SemanticNetwork& network) {
  Document doc;
  Node* root = doc.AddElement(nullptr, "semantic_tree");
  if (!semantic_tree.tree.empty()) {
    AppendNodeXml(semantic_tree, network, semantic_tree.tree.root(), &doc,
                  root);
  }
  return SerializeDom(doc);
}

}  // namespace xsdf::oracles
