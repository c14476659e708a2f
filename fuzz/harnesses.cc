#include "harnesses.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/context_vector.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "oracles/dom.h"
#include "oracles/dom_tree_builder.h"
#include "oracles/graph_walks.h"
#include "prop/generators.h"
#include "snapshot/snapshot.h"
#include "text/preprocess.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/wndb.h"
#include "xml/labeled_tree.h"
#include "xml/parser.h"

namespace xsdf::fuzz {
namespace {

/// Fuzz-time parse limits: small enough that pathological inputs fail
/// fast instead of timing out the fuzzer, large enough to not mask the
/// interesting parser states. The depth cap sits far above the default:
/// nothing in the parser or the tree builder recurses per level.
xml::ParseOptions FuzzXmlOptions() {
  xml::ParseOptions options;
  options.discard_whitespace_text = false;
  options.limits.max_input_bytes = 1u << 20;
  options.limits.max_depth = 4096;
  options.limits.max_attributes_per_element = 256;
  options.limits.max_entity_references = 1u << 12;
  return options;
}

[[noreturn]] void OracleFailure(const char* target, const char* what,
                                const std::string& detail) {
  std::fprintf(stderr, "[%s] ORACLE VIOLATION: %s\n%s\n", target, what,
               detail.c_str());
  std::abort();
}

/// The bundled mini-WordNet the front end builds against, built once.
const wordnet::SemanticNetwork& FuzzNetwork() {
  static const wordnet::SemanticNetwork* network = [] {
    auto built = wordnet::BuildMiniWordNet();
    if (!built.ok()) {
      OracleFailure("frontend", "lexicon failed to build",
                    built.status().ToString());
    }
    return new wordnet::SemanticNetwork(std::move(built).value());
  }();
  return *network;
}

std::string_view AsText(const uint8_t* data, size_t size) {
  return {reinterpret_cast<const char*>(data), size};
}

/// One node of the tree the direct DOM walk expects.
struct ExpectedNode {
  std::string label;
  std::string raw;
  xml::TreeNodeKind kind = xml::TreeNodeKind::kElement;
  xml::NodeId parent = xml::kInvalidNode;
  int depth = 0;
};

/// The lexicon probe of the production pre-processing.
bool InFuzzLexicon(const std::string& lemma) {
  return FuzzNetwork().Contains(lemma);
}

/// Appends the token nodes the value pre-processing makes of `text`,
/// computed directly rather than through the builder's memos.
void ExpectTokens(std::string_view text, xml::NodeId parent, int depth,
                  std::vector<ExpectedNode>* out) {
  for (std::string& label :
       text::PreprocessTextValue(text, InFuzzLexicon)) {
    if (label.empty()) continue;
    out->push_back({label, label, xml::TreeNodeKind::kToken, parent, depth});
  }
}

/// Appends `element` and its attributes, sorted by name, each followed
/// by its value tokens; returns the element's id.
xml::NodeId ExpectStartTag(const oracles::Node& element, xml::NodeId parent,
                           int depth, bool include_values,
                           std::vector<ExpectedNode>* out) {
  const auto id = static_cast<xml::NodeId>(out->size());
  out->push_back(
      {text::PreprocessTagName(element.name(), InFuzzLexicon).label,
       element.name(), xml::TreeNodeKind::kElement, parent, depth});
  std::vector<const oracles::Attribute*> attrs;
  for (const oracles::Attribute& attr : element.attributes()) {
    attrs.push_back(&attr);
  }
  std::sort(attrs.begin(), attrs.end(),
            [](const oracles::Attribute* a, const oracles::Attribute* b) {
              return a->name < b->name;
            });
  for (const oracles::Attribute* attr : attrs) {
    const auto attr_id = static_cast<xml::NodeId>(out->size());
    out->push_back(
        {text::PreprocessTagName(attr->name, InFuzzLexicon).label,
         attr->name, xml::TreeNodeKind::kAttribute, id, depth + 1});
    if (include_values) ExpectTokens(attr->value, attr_id, depth + 2, out);
  }
  return id;
}

/// A direct walk of the DOM in Definition 1's order (the element, its
/// attributes sorted by name each followed by its value tokens, then
/// content in document order), labelling every node with the
/// unmemoized tag and value pre-processing: the reference every column
/// of the built tree is checked against. An explicit stack keeps deep
/// documents off the call stack.
void ExpectElement(const oracles::Node& root, bool include_values,
                   std::vector<ExpectedNode>* out) {
  struct Frame {
    const oracles::Node* element;
    xml::NodeId id;
    int depth;
    size_t next_child;
  };
  std::vector<Frame> open = {
      {&root, ExpectStartTag(root, xml::kInvalidNode, 0, include_values, out),
       0, 0}};
  while (!open.empty()) {
    Frame& frame = open.back();
    const std::vector<oracles::Node*>& children = frame.element->children();
    if (frame.next_child == children.size()) {
      open.pop_back();
      continue;
    }
    const oracles::Node& child = *children[frame.next_child++];
    const xml::NodeId id = frame.id;
    const int depth = frame.depth + 1;
    if (child.is_element()) {
      open.push_back({&child,
                      ExpectStartTag(child, id, depth, include_values, out),
                      depth, 0});
    } else if (child.is_text() && include_values) {
      ExpectTokens(child.text(), id, depth, out);
    }
  }
}

/// Checks every column of `tree` — label id, spelling, raw, kind,
/// parent, depth and child order — against `expected`. The builder
/// interns labels in node order, so resolving the expected labels in
/// node order through a fresh LabelSpace over the same network must
/// reproduce every id.
void CheckColumns(const xml::LabeledTree& tree,
                  const std::vector<ExpectedNode>& expected) {
  if (tree.size() != expected.size()) {
    OracleFailure("frontend", "node count differs from the DOM walk",
                  std::to_string(tree.size()) + " vs " +
                      std::to_string(expected.size()));
  }
  core::LabelSpace space(&FuzzNetwork());
  std::vector<std::vector<xml::NodeId>> children(expected.size());
  for (xml::NodeId id : tree.ids()) {
    const ExpectedNode& want = expected[static_cast<size_t>(id)];
    if (tree.label_id(id) != space.Resolve(want.label) ||
        tree.label(id) != want.label || tree.raw(id) != want.raw ||
        tree.kind(id) != want.kind || tree.parent(id) != want.parent ||
        tree.depth(id) != want.depth) {
      OracleFailure("frontend", "column differs from the DOM walk",
                    "node " + std::to_string(id));
    }
    if (want.parent != xml::kInvalidNode) {
      children[static_cast<size_t>(want.parent)].push_back(id);
    }
  }
  for (xml::NodeId id : tree.ids()) {
    if (!std::ranges::equal(tree.children(id),
                            children[static_cast<size_t>(id)])) {
      OracleFailure("frontend", "child order differs from the DOM walk",
                    "node " + std::to_string(id));
    }
  }
}

/// BuildXmlIdSphere must list oracles::Rings()' members in ring order
/// and, within a ring, in its order, each with its node's label id and
/// its ring's distance; excluding tokens drops exactly the token nodes
/// past the center.
void CheckSphereOrder(const xml::LabeledTree& tree, xml::NodeId center,
                      int radius) {
  const std::vector<std::vector<xml::NodeId>> rings =
      oracles::Rings(tree, center, radius);
  for (bool exclude_tokens : {false, true}) {
    core::IdSphere expected;
    expected.radius = radius;
    for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
      for (xml::NodeId id : rings[static_cast<size_t>(d)]) {
        if (exclude_tokens && d > 0 &&
            tree.kind(id) == xml::TreeNodeKind::kToken) {
          continue;
        }
        expected.push_back(tree.label_id(id), d);
      }
    }
    const core::IdSphere sphere =
        core::BuildXmlIdSphere(tree, center, radius, exclude_tokens);
    if (sphere.radius != radius || sphere.label_ids != expected.label_ids ||
        sphere.distances != expected.distances) {
      OracleFailure("frontend", "sphere members differ from Rings()",
                    "center " + std::to_string(center) + " radius " +
                        std::to_string(radius) +
                        (exclude_tokens ? " without tokens" : ""));
    }
  }
}


/// The accepted DOM serializes into text that reparses (under the same
/// options) into a structurally equal document, and the reparse
/// serializes to the same bytes: the parser held to its own output.
void CheckRoundTrip(const oracles::Document& doc,
                    const xml::ParseOptions& options) {
  oracles::SerializeOptions ser;
  ser.indent = 0;
  const std::string s1 = oracles::SerializeDom(doc, ser);
  auto reparsed = oracles::ParseDom(s1, options);
  if (!reparsed.ok()) {
    OracleFailure("frontend", "accepted document, rejected its serialization",
                  reparsed.status().ToString() + "\nserialized:\n" + s1);
  }
  std::string diff;
  if (!oracles::StructurallyEqual(doc, *reparsed, &diff)) {
    OracleFailure("frontend", "round trip changed the document",
                  diff + "\nserialized:\n" + s1);
  }
  if (oracles::SerializeDom(*reparsed, ser) != s1) {
    OracleFailure("frontend", "serialization is not a fixed point", s1);
  }
}

/// The streaming tree equals the DOM build node for node: label, raw,
/// kind, parent, depth, label id (so the interning order too) and
/// child order.
void CheckSameTree(const xml::LabeledTree& dom,
                   const xml::LabeledTree& streamed) {
  if (dom.size() != streamed.size()) {
    OracleFailure("frontend", "streaming and DOM node counts differ",
                  std::to_string(dom.size()) + " vs " +
                      std::to_string(streamed.size()));
  }
  for (xml::NodeId id : dom.ids()) {
    if (dom.label_id(id) != streamed.label_id(id) ||
        dom.label(id) != streamed.label(id) ||
        dom.raw(id) != streamed.raw(id) ||
        dom.kind(id) != streamed.kind(id) ||
        dom.parent(id) != streamed.parent(id) ||
        dom.depth(id) != streamed.depth(id) ||
        !std::ranges::equal(dom.children(id), streamed.children(id))) {
      OracleFailure("frontend", "streaming and DOM trees differ",
                    "node " + std::to_string(id));
    }
  }
}

/// Exercises the tree's query surface from nodes derived from the flag
/// byte and the input size, so replay is deterministic. Every call
/// must terminate and stay in bounds (ASan/UBSan watch the rest).
void CheckQueries(const xml::LabeledTree& tree, uint8_t flags, size_t size) {
  const size_t n = tree.size();
  if (n == 0) return;
  auto a = static_cast<xml::NodeId>(flags % n);
  auto b = static_cast<xml::NodeId>((flags / 7 + size) % n);
  xml::NodeId lca = oracles::LowestCommonAncestor(tree, a, b);
  int distance = oracles::Distance(tree, a, b);
  if (distance < 0) {
    OracleFailure("frontend", "negative node distance",
                  std::to_string(distance));
  }
  if (tree.depth(lca) > tree.depth(a) || tree.depth(lca) > tree.depth(b)) {
    OracleFailure("frontend", "LCA deeper than its descendants", "");
  }
  CheckSphereOrder(tree, a, 1 + flags % 4);
  if (tree.RootPath(b).empty()) {
    OracleFailure("frontend", "empty root path", "");
  }
  if (tree.Subtree(0).size() != n) {
    OracleFailure("frontend", "root subtree does not cover the tree", "");
  }
  tree.MaxDepth();
  tree.MaxFanOut();
  tree.MaxDensity();
}

}  // namespace

void DriveFrontEnd(const uint8_t* data, size_t size) {
  if (size < 1) return;
  const wordnet::SemanticNetwork& network = FuzzNetwork();
  const uint8_t flags = data[0];
  xml::ParseOptions po = FuzzXmlOptions();
  // Bit 1 is unused (it once kept comments in the DOM), so the seed
  // corpus replays unchanged.
  po.discard_whitespace_text = (flags & 1) != 0;
  const bool include_values = (flags & 4) != 0;
  const std::string_view text = AsText(data + 1, size - 1);

  auto doc = oracles::ParseDom(text, po);
  core::LabelSpace stream_space(&network);
  auto streamed = core::BuildTreeStreaming(text, network, po,
                                           include_values, &stream_space);
  if (doc.ok() != streamed.ok()) {
    OracleFailure("frontend", "front ends disagree on accepting the input",
                  "dom: " + doc.status().ToString() +
                      "\nstream: " + streamed.status().ToString());
  }
  if (!doc.ok()) {
    if (doc.status().ToString().empty() ||
        streamed.status().ToString().empty()) {
      OracleFailure("frontend", "rejection without a message", "");
    }
    return;
  }
  core::LabelSpace dom_space(&network);
  auto dom = oracles::BuildTreeViaDom(*doc, network, include_values,
                                      &dom_space);
  if (!dom.ok()) {
    OracleFailure("frontend", "DOM walk failed on an accepted document",
                  dom.status().ToString());
  }
  for (const xml::LabeledTree* tree : {&*dom, &*streamed}) {
    Status audit = tree->Validate();
    if (!audit.ok()) {
      OracleFailure("frontend", "labeled tree failed its audit",
                    audit.ToString());
    }
  }
  CheckSameTree(*dom, *streamed);
  std::vector<ExpectedNode> expected;
  ExpectElement(*doc->root(), include_values, &expected);
  CheckColumns(*streamed, expected);
  CheckRoundTrip(*doc, po);
  CheckQueries(*streamed, flags, size);
}

void DriveWndbParser(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return;  // keep the fuzzer fast
  wordnet::WndbFiles files = propgen::UnpackWndbContainer(AsText(data, size));
  auto parsed = wordnet::ParseWndb(files);
  if (!parsed.ok()) {
    if (parsed.status().ToString().empty()) {
      OracleFailure("wndb", "rejection without a message", "");
    }
    return;
  }
  // Differential idempotence. Write(Parse(input)) is compared against
  // Write(Parse(Write(Parse(input)))) rather than against the input:
  // the first round trip may canonicalize (lemma normalization, sense
  // regrouping), but after that the codec must be a fixed point.
  auto files2 = wordnet::WriteWndb(*parsed);
  if (!files2.ok()) {
    OracleFailure("wndb", "accepted network failed to serialize",
                  files2.status().ToString());
  }
  auto parsed2 = wordnet::ParseWndb(*files2);
  if (!parsed2.ok()) {
    OracleFailure("wndb", "rewrite of accepted input was rejected",
                  parsed2.status().ToString());
  }
  auto files3 = wordnet::WriteWndb(*parsed2);
  if (!files3.ok()) {
    OracleFailure("wndb", "second rewrite failed",
                  files3.status().ToString());
  }
  if (*files2 != *files3) {
    for (const auto& [name, contents] : *files2) {
      if (!files3->count(name) || files3->at(name) != contents) {
        OracleFailure("wndb", "codec is not a fixed point", name);
      }
    }
    OracleFailure("wndb", "codec is not a fixed point", "file set drift");
  }
}

void DriveSnapshotLoader(const uint8_t* data, size_t size) {
  if (size > (4u << 20)) return;  // keep the fuzzer fast
  // The loader requires 8-byte alignment (and rejects anything else up
  // front), so fuzz inputs go through an aligned copy — the same thing
  // MappedFile gives real callers.
  auto buffer = std::make_shared<std::vector<uint64_t>>((size + 7) / 8);
  if (size > 0) std::memcpy(buffer->data(), data, size);
  const auto* bytes = reinterpret_cast<const uint8_t*>(buffer->data());
  auto loaded = snapshot::LoadNetworkSnapshotFromBuffer(
      std::shared_ptr<const void>(buffer, buffer->data()), bytes, size);
  if (!loaded.ok()) {
    if (loaded.status().ToString().empty()) {
      OracleFailure("snapshot", "rejection without a message", "");
    }
    return;
  }
  // An accepted network must survive its entire read surface: every
  // per-concept table, the sense index, and the taxonomy queries that
  // walk the mapped ancestor rows. ASan/UBSan watch for out-of-bounds
  // reads into the backing buffer.
  const wordnet::SemanticNetwork& network = **loaded;
  if (!network.finalized()) {
    OracleFailure("snapshot", "loader produced an unfinalized network", "");
  }
  size_t n = network.size();
  for (size_t i = 0; i < n; ++i) {
    auto id = static_cast<wordnet::ConceptId>(i);
    const wordnet::Concept& synset = network.GetConcept(id);
    if (synset.synonyms.empty()) {
      OracleFailure("snapshot", "concept with no synonyms",
                    std::to_string(i));
    }
    for (const auto& edge : synset.edges) {
      if (static_cast<size_t>(edge.target) >= n) {
        OracleFailure("snapshot", "edge target out of range",
                      std::to_string(edge.target));
      }
    }
    network.Ancestors(id);
    network.GlossTokens(id);
    network.GlossTokenBag(id);
    network.InformationContentOf(id);
    if (network.Depth(id) < 0) {
      OracleFailure("snapshot", "negative depth", std::to_string(i));
    }
    // A concept's cumulative frequency covers its whole hyponym
    // subtree, so it must dominate the concept's own frequency.
    if (network.CumulativeFrequency(id) + 1e-9 < synset.frequency) {
      OracleFailure("snapshot", "cumulative frequency below own frequency",
                    std::to_string(i));
    }
    for (wordnet::ConceptId sense : network.Senses(synset.label())) {
      if (static_cast<size_t>(sense) >= n) {
        OracleFailure("snapshot", "sense id out of range",
                      std::to_string(sense));
      }
    }
  }
  network.MaxPolysemy();
  network.MaxDepth();
  if (n > 1) {
    oracles::LeastCommonSubsumer(network, 0,
                                 static_cast<wordnet::ConceptId>(n - 1));
  }
  // Re-snapshot + re-load: the writer reads through the same views the
  // mapped network installed, so anything the loader accepts must
  // serialize into bytes the loader accepts again, with nothing lost.
  auto rewritten = snapshot::WriteNetworkSnapshot(network);
  if (!rewritten.ok()) {
    OracleFailure("snapshot", "accepted network failed to re-snapshot",
                  rewritten.status().ToString());
  }
  auto copy =
      std::make_shared<std::vector<uint64_t>>((rewritten->size() + 7) / 8);
  std::memcpy(copy->data(), rewritten->data(), rewritten->size());
  auto reloaded = snapshot::LoadNetworkSnapshotFromBuffer(
      std::shared_ptr<const void>(copy, copy->data()),
      reinterpret_cast<const uint8_t*>(copy->data()), rewritten->size());
  if (!reloaded.ok()) {
    OracleFailure("snapshot", "re-snapshot of accepted network was rejected",
                  reloaded.status().ToString());
  }
  if ((*reloaded)->size() != n ||
      (*reloaded)->LemmaCount() != network.LemmaCount()) {
    OracleFailure("snapshot", "re-snapshot changed the network", "");
  }
}

}  // namespace xsdf::fuzz
