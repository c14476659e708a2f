// Property tests for the XML layer: every generated well-formed
// document must survive parse -> serialize -> reparse through the
// test-only DOM (oracles::ParseDom, oracles::SerializeDom) with
// identical structure, the serialized form must be a fixed point, and
// the LabeledTree built from any parsed document must pass its
// structural audit.

#include <gtest/gtest.h>

#include <string>

#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "oracles/dom.h"
#include "prop/generators.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto built = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(built).value());
  }();
  return *network;
}

/// Options under which the round trip is an exact fixed point: keep
/// whitespace-only text (the generator emits it as real content; the
/// parser never surfaces comments or PIs), and serialize without
/// indentation (pretty-printing inserts text into mixed content, which
/// is intentionally not idempotent).
xml::ParseOptions OracleParseOptions() {
  xml::ParseOptions options;
  options.discard_whitespace_text = false;
  return options;
}

oracles::SerializeOptions OracleSerializeOptions() {
  oracles::SerializeOptions options;
  options.indent = 0;
  return options;
}

TEST(XmlRoundTripProp, FiveHundredGeneratedDocumentsAreStable) {
  Rng rng(0x5eed0001);
  for (int i = 0; i < 500; ++i) {
    std::string text = propgen::GenerateXmlDocument(rng);
    auto doc1 = oracles::ParseDom(text, OracleParseOptions());
    ASSERT_TRUE(doc1.ok()) << "doc " << i << " rejected: "
                           << doc1.status().ToString() << "\ninput:\n"
                           << text;
    std::string s1 = oracles::SerializeDom(*doc1, OracleSerializeOptions());
    auto doc2 = oracles::ParseDom(s1, OracleParseOptions());
    ASSERT_TRUE(doc2.ok()) << "doc " << i << " reparse rejected: "
                           << doc2.status().ToString() << "\ninput:\n"
                           << text << "\nserialized:\n"
                           << s1;
    std::string diff;
    ASSERT_TRUE(oracles::StructurallyEqual(*doc1, *doc2, &diff))
        << "doc " << i << " structural drift: " << diff << "\ninput:\n"
        << text << "\nserialized:\n"
        << s1;
    // The serialized form is a fixed point of parse-then-serialize.
    std::string s2 = oracles::SerializeDom(*doc2, OracleSerializeOptions());
    ASSERT_EQ(s1, s2) << "doc " << i << " serialization not idempotent";
  }
}

TEST(XmlRoundTripProp, GeneratedDocumentsSurviveDefaultOptionsToo) {
  // The production configuration (whitespace discarded) must also
  // accept every generated document; structure is not compared because
  // dropping whitespace-only text nodes is the point of the option.
  Rng rng(0x5eed0002);
  for (int i = 0; i < 200; ++i) {
    std::string text = propgen::GenerateXmlDocument(rng);
    auto doc = oracles::ParseDom(text);
    ASSERT_TRUE(doc.ok()) << "doc " << i << " rejected: "
                          << doc.status().ToString() << "\ninput:\n"
                          << text;
  }
}

TEST(XmlRoundTripProp, LabeledTreesValidateOnGeneratedDocuments) {
  Rng rng(0x5eed0003);
  core::LabelSpace space(&Network());
  for (int i = 0; i < 200; ++i) {
    std::string text = propgen::GenerateXmlDocument(rng);
    auto tree = core::BuildTreeStreaming(text, Network(), xml::ParseOptions{},
                                         /*include_values=*/true, &space);
    ASSERT_TRUE(tree.ok()) << "doc " << i << ": "
                           << tree.status().ToString();
    Status audit = tree->Validate();
    ASSERT_TRUE(audit.ok()) << "doc " << i
                            << " tree audit failed: " << audit.ToString()
                            << "\ninput:\n"
                            << text;
    EXPECT_GT(tree->size(), 0u);
  }
}

TEST(XmlRoundTripProp, NestingDeeperThanTheLimitIsOutOfRange) {
  auto nested = [](int depth) {
    std::string text;
    for (int d = 0; d < depth; ++d) text += "<n>";
    text += "x";
    for (int d = 0; d < depth; ++d) text += "</n>";
    return text;
  };
  xml::ParseOptions tight = OracleParseOptions();
  tight.limits.max_depth = 8;
  for (int depth = 1; depth <= 32; ++depth) {
    auto doc = oracles::ParseDom(nested(depth), tight);
    if (depth <= 8) {
      ASSERT_TRUE(doc.ok()) << "depth " << depth << ": "
                            << doc.status().ToString();
    } else {
      ASSERT_FALSE(doc.ok()) << "depth " << depth << " accepted";
      EXPECT_EQ(doc.status().code(), StatusCode::kOutOfRange)
          << doc.status().ToString();
    }
  }
  // The depth cap is the parser's stack-overflow guard, so it cannot be
  // switched off: 0 is rejected on both parse entry points...
  xml::ParseOptions off = OracleParseOptions();
  off.limits.max_depth = 0;
  auto rejected = oracles::ParseDom(nested(2), off);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  xml::StreamHandler ignore;
  EXPECT_EQ(xml::StreamParse(nested(2), &ignore, off).code(),
            StatusCode::kInvalidArgument);
  // ...while a deliberately raised cap accepts nesting past the default.
  xml::ParseOptions raised = OracleParseOptions();
  raised.limits.max_depth = 512;
  auto deep = oracles::ParseDom(nested(512), raised);
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  EXPECT_EQ(oracles::ParseDom(nested(513), raised).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace xsdf
