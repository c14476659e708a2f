// Unit tests for the from-scratch XML parser: well-formed documents,
// entities, CDATA, comments, DOCTYPE skipping, and a parameterized
// sweep of malformed inputs that must produce Corruption errors with
// positions. Documents are read through xml::StreamParse into the
// test-only DOM (oracles::ParseDom).

#include <gtest/gtest.h>

#include "oracles/dom.h"
#include "xml/escape.h"
#include "xml/parser.h"

namespace xsdf::xml {
namespace {

using oracles::Node;
using oracles::NodeKind;
using oracles::ParseDom;
using oracles::SerializeDom;
using oracles::SerializeOptions;

/// StreamParse into a handler that keeps nothing.
Status StreamOnly(std::string_view input, const ParseOptions& options = {}) {
  StreamHandler ignore;
  return StreamParse(input, &ignore, options);
}

TEST(XmlParserTest, MinimalDocument) {
  auto doc = ParseDom("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->root(), nullptr);
  EXPECT_EQ(doc->root()->name(), "root");
  EXPECT_TRUE(doc->root()->children().empty());
}

TEST(XmlParserTest, Declaration) {
  auto doc = ParseDom("<?xml version=\"1.1\" encoding=\"UTF-8\"?><r/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->name(), "r");
}

TEST(XmlParserTest, NestedElementsPreserveOrder) {
  auto doc = ParseDom("<a><b/><c/><b/></a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = doc->root();
  ASSERT_EQ(root->children().size(), 3u);
  EXPECT_EQ(root->children()[0]->name(), "b");
  EXPECT_EQ(root->children()[1]->name(), "c");
  EXPECT_EQ(root->children()[2]->name(), "b");
}

TEST(XmlParserTest, Attributes) {
  auto doc = ParseDom("<movie year=\"1954\" title='Rear Window'/>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->attributes().size(), 2u);
  EXPECT_EQ(*doc->root()->FindAttribute("year"), "1954");
  EXPECT_EQ(*doc->root()->FindAttribute("title"), "Rear Window");
  EXPECT_EQ(doc->root()->FindAttribute("missing"), nullptr);
}

TEST(XmlParserTest, TextContent) {
  auto doc = ParseDom("<d>Hitchcock</d>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "Hitchcock");
}

TEST(XmlParserTest, MixedContent) {
  auto doc = ParseDom("<p>before<b>bold</b>after</p>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->children().size(), 3u);
  EXPECT_TRUE(doc->root()->children()[0]->is_text());
  EXPECT_TRUE(doc->root()->children()[1]->is_element());
  EXPECT_EQ(doc->root()->InnerText(), "beforeboldafter");
}

TEST(XmlParserTest, WhitespaceTextDiscardedByDefault) {
  auto doc = ParseDom("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 1u);
}

TEST(XmlParserTest, WhitespaceTextKeptWhenRequested) {
  ParseOptions options;
  options.discard_whitespace_text = false;
  auto doc = ParseDom("<a>\n  <b/>\n</a>", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 3u);
}

TEST(XmlParserTest, PredefinedEntities) {
  auto doc = ParseDom("<t>a &lt; b &amp;&amp; c &gt; d &quot;&apos;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "a < b && c > d \"'");
}

TEST(XmlParserTest, EntitiesInAttributes) {
  auto doc = ParseDom("<t a=\"x &amp; y &lt;z&gt;\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root()->FindAttribute("a"), "x & y <z>");
}

TEST(XmlParserTest, DecimalCharacterReference) {
  auto doc = ParseDom("<t>&#65;&#66;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "AB");
}

TEST(XmlParserTest, HexCharacterReference) {
  auto doc = ParseDom("<t>&#x41;&#x6a;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "Aj");
}

TEST(XmlParserTest, Utf8CharacterReference) {
  auto doc = ParseDom("<t>&#233;</t>");  // e-acute -> 2-byte UTF-8
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "\xC3\xA9");
}

TEST(XmlParserTest, CData) {
  auto doc = ParseDom("<t><![CDATA[<not> parsed & raw]]></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "<not> parsed & raw");
  EXPECT_EQ(doc->root()->children()[0]->kind(), NodeKind::kCData);
}

TEST(XmlParserTest, CommentsDroppedByDefault) {
  auto doc = ParseDom("<t><!-- hidden --><b/></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 1u);
}

TEST(XmlParserTest, DoctypeSkipped) {
  auto doc = ParseDom(
      "<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]>\n<note>x</note>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->name(), "note");
}

TEST(XmlParserTest, ProcessingInstructionSkipped) {
  auto doc = ParseDom("<?xml-stylesheet href=\"s.css\"?><r><?php x?></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->root()->children().empty());
}

TEST(XmlParserTest, SelfClosingWithAttributes) {
  auto doc = ParseDom("<a><b x=\"1\"/><b x=\"2\"/></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->ElementChildCount(), 2u);
}

TEST(XmlParserTest, TrailingCommentAllowed) {
  auto doc = ParseDom("<r/><!-- trailing -->");
  EXPECT_TRUE(doc.ok());
}

TEST(XmlParserTest, DeepNesting) {
  std::string xml;
  for (int i = 0; i < 200; ++i) xml += "<n>";
  xml += "x";
  for (int i = 0; i < 200; ++i) xml += "</n>";
  auto doc = ParseDom(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->CountElements(), 200u);
}

TEST(XmlParserTest, FindChildElements) {
  auto doc = ParseDom("<cast><star>a</star><extra/><star>b</star></cast>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->FindChildElements("star").size(), 2u);
  EXPECT_NE(doc->root()->FindChildElement("extra"), nullptr);
  EXPECT_EQ(doc->root()->FindChildElement("nope"), nullptr);
}

TEST(XmlParserTest, ErrorPositionsReported) {
  auto doc = ParseDom("<a>\n  <b>\n</a>");
  ASSERT_FALSE(doc.ok());
  // The mismatched end tag is on line 3.
  EXPECT_NE(doc.status().message().find("3:"), std::string::npos)
      << doc.status().ToString();
}

// ---- Parameterized malformed-input sweep -------------------------------

class MalformedXmlTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedXmlTest, ReportsCorruption) {
  auto doc = ParseDom(GetParam());
  ASSERT_FALSE(doc.ok()) << "input: " << GetParam();
  EXPECT_EQ(doc.status().code(), StatusCode::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, MalformedXmlTest,
    ::testing::Values(
        "",                                // no root
        "just text",                       // no element
        "<a>",                             // unterminated element
        "<a></b>",                         // mismatched end tag
        "<a><b></a></b>",                  // crossed nesting
        "<a x=1/>",                        // unquoted attribute
        "<a x=\"1/>",                      // unterminated attribute
        "<a x=\"1\" x=\"2\"/>",            // duplicate attribute
        "<a><![CDATA[never closed</a>",    // unterminated CDATA
        "<a><!-- never closed</a>",        // unterminated comment
        "<1tag/>",                         // invalid name start
        "<a>&unknown;</a>",                // unknown entity
        "<a>&#xZZ;</a>",                   // bad char reference
        "<a>&#1114112;</a>",               // out-of-range reference
        "<a/><b/>",                        // two roots
        "<a b=\"<\"/>",                    // '<' in attribute value
        "<!DOCTYPE unterminated [<x>"));   // unterminated DOCTYPE

TEST(XmlValidNameTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidName("tag"));
  EXPECT_TRUE(IsValidName("_tag"));
  EXPECT_TRUE(IsValidName("ns:tag"));
  EXPECT_TRUE(IsValidName("a-b.c_d1"));
  EXPECT_FALSE(IsValidName(""));
  EXPECT_FALSE(IsValidName("1tag"));
  EXPECT_FALSE(IsValidName("-tag"));
  EXPECT_FALSE(IsValidName("tag with space"));
}

TEST(XmlSerializerTest, EscapesText) {
  std::string out = "kept:";
  AppendEscaped(&out, "a<b>&c \"q\"", /*attribute=*/false);
  EXPECT_EQ(out, "kept:a&lt;b&gt;&amp;c \"q\"");
  out.clear();
  AppendEscaped(&out, "say \"hi\" & <go>", /*attribute=*/true);
  EXPECT_EQ(out, "say &quot;hi&quot; &amp; &lt;go&gt;");
}

TEST(XmlSerializerTest, RoundTripPreservesStructure) {
  const char* xml =
      "<films><picture title=\"Rear &amp; Window\">"
      "<director>Hitchcock</director><cast><star>Kelly</star></cast>"
      "</picture></films>";
  auto doc = ParseDom(xml);
  ASSERT_TRUE(doc.ok());
  std::string serialized = SerializeDom(*doc);
  auto doc2 = ParseDom(serialized);
  ASSERT_TRUE(doc2.ok()) << serialized;
  EXPECT_EQ(doc2->root()->name(), "films");
  const Node* picture = doc2->root()->FindChildElement("picture");
  ASSERT_NE(picture, nullptr);
  EXPECT_EQ(*picture->FindAttribute("title"), "Rear & Window");
  EXPECT_EQ(picture->FindChildElement("director")->InnerText(),
            "Hitchcock");
}

TEST(XmlSerializerTest, CompactModeSingleLine) {
  auto doc = ParseDom("<a><b>x</b></a>");
  SerializeOptions options;
  options.indent = 0;
  options.declaration = false;
  EXPECT_EQ(SerializeDom(*doc, options), "<a><b>x</b></a>");
}

TEST(XmlSerializerTest, EmptyElementSelfCloses) {
  auto doc = ParseDom("<a><b></b></a>");
  SerializeOptions options;
  options.indent = 0;
  options.declaration = false;
  EXPECT_EQ(SerializeDom(*doc, options), "<a><b/></a>");
}

TEST(XmlSerializerTest, DoubleRoundTripIsStable) {
  auto doc = ParseDom("<a x=\"1\"><b>text</b><c/><d>more text</d></a>");
  ASSERT_TRUE(doc.ok());
  std::string once = SerializeDom(*doc);
  auto doc2 = ParseDom(once);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(SerializeDom(*doc2), once);
}

// ---- ParseLimits hardening ------------------------------------------

TEST(XmlParseLimitsTest, DepthAtTheBoundIsAcceptedOneDeeperIsNot) {
  ParseOptions options;
  options.limits.max_depth = 3;
  EXPECT_TRUE(ParseDom("<a><b><c/></b></a>", options).ok());
  auto too_deep = ParseDom("<a><b><c><d/></c></b></a>", options);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kOutOfRange);
  // The error carries a position like every other parse diagnostic.
  EXPECT_NE(too_deep.status().ToString().find("1:"), std::string::npos)
      << too_deep.status().ToString();
}

TEST(XmlParseLimitsTest, AttributeCountCap) {
  ParseOptions options;
  options.limits.max_attributes_per_element = 2;
  EXPECT_TRUE(ParseDom("<a x=\"1\" y=\"2\"/>", options).ok());
  auto over = ParseDom("<a x=\"1\" y=\"2\" z=\"3\"/>", options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(XmlParseLimitsTest, EntityBudgetIsDocumentWide) {
  ParseOptions options;
  options.limits.max_entity_references = 3;
  // Three references across separate nodes: exactly at the budget.
  EXPECT_TRUE(ParseDom("<a x=\"&lt;\"><b>&gt;</b>&amp;</a>", options).ok());
  auto over = ParseDom("<a x=\"&lt;\"><b>&gt;&#65;</b>&amp;</a>", options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(XmlParseLimitsTest, InputSizeCap) {
  ParseOptions options;
  options.limits.max_input_bytes = 16;
  EXPECT_TRUE(ParseDom("<abcdefghijkl/>", options).ok());
  auto over = ParseDom("<abcdefghijklmnopq/>", options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(XmlParseLimitsTest, ZeroDisablesEachSizeAndCountLimit) {
  ParseOptions options;
  options.limits.max_depth = 600;
  options.limits.max_attributes_per_element = 0;
  options.limits.max_entity_references = 0;
  options.limits.max_input_bytes = 0;
  std::string deep;
  for (int i = 0; i < 600; ++i) deep += "<n>";
  deep += "&amp;";
  for (int i = 0; i < 600; ++i) deep += "</n>";
  EXPECT_TRUE(ParseDom(deep, options).ok());
}

TEST(XmlParseLimitsTest, DepthCapCannotBeDisabled) {
  for (int max_depth : {0, -1}) {
    ParseOptions options;
    options.limits.max_depth = max_depth;
    auto doc = ParseDom("<a/>", options);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    StreamHandler ignore;
    EXPECT_EQ(StreamParse("<a/>", &ignore, options).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(XmlParseLimitsTest, GrammarViolationsStayCorruption) {
  // Limits must not reclassify ordinary malformedness.
  auto doc = ParseDom("<a><b></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kCorruption);
}

TEST(XmlParserTest, DeclarationVersionAndEncodingAreValidated) {
  // Declaration values are serialized verbatim, so garbage accepted
  // here would round-trip into unparseable output (found by fuzzing).
  EXPECT_FALSE(StreamOnly("<?xml version=\"1.0f>&\"?><a/>").ok());
  EXPECT_EQ(StreamOnly("<?xml version=\"2.0\"?><a/>").ToString(),
            "Corruption: XML parse error at 1:20: malformed XML version "
            "\"2.0\"");
  EXPECT_FALSE(StreamOnly("<?xml version=\"1.\"?><a/>").ok());
  EXPECT_FALSE(
      StreamOnly("<?xml version=\"1.0\" encoding=\"U TF8\"?><a/>").ok());
  EXPECT_FALSE(
      StreamOnly("<?xml version=\"1.0\" encoding=\"8bit\"?><a/>").ok());
  Status ok =
      StreamOnly("<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a/>");
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

TEST(XmlDecodeEntitiesTest, BudgetedOverloadStopsAtZero) {
  size_t budget = 2;
  auto two = DecodeEntities("&lt;&gt;", &budget);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(*two, "<>");
  EXPECT_EQ(budget, 0u);
  auto exhausted = DecodeEntities("&amp;", &budget);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace xsdf::xml
