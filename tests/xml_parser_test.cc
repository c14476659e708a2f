// Unit tests for the from-scratch XML parser: well-formed documents,
// entities, CDATA, comments, DOCTYPE skipping, and a parameterized
// sweep of malformed inputs that must produce Corruption errors with
// positions.

#include <gtest/gtest.h>

#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xsdf::xml {
namespace {

TEST(XmlParserTest, MinimalDocument) {
  auto doc = Parse("<root/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->root(), nullptr);
  EXPECT_EQ(doc->root()->name(), "root");
  EXPECT_TRUE(doc->root()->children().empty());
}

TEST(XmlParserTest, Declaration) {
  auto doc = Parse("<?xml version=\"1.1\" encoding=\"UTF-8\"?><r/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->version(), "1.1");
  EXPECT_EQ(doc->encoding(), "UTF-8");
}

TEST(XmlParserTest, NestedElementsPreserveOrder) {
  auto doc = Parse("<a><b/><c/><b/></a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = doc->root();
  ASSERT_EQ(root->children().size(), 3u);
  EXPECT_EQ(root->children()[0]->name(), "b");
  EXPECT_EQ(root->children()[1]->name(), "c");
  EXPECT_EQ(root->children()[2]->name(), "b");
}

TEST(XmlParserTest, Attributes) {
  auto doc = Parse("<movie year=\"1954\" title='Rear Window'/>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->attributes().size(), 2u);
  EXPECT_EQ(*doc->root()->FindAttribute("year"), "1954");
  EXPECT_EQ(*doc->root()->FindAttribute("title"), "Rear Window");
  EXPECT_EQ(doc->root()->FindAttribute("missing"), nullptr);
}

TEST(XmlParserTest, TextContent) {
  auto doc = Parse("<d>Hitchcock</d>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "Hitchcock");
}

TEST(XmlParserTest, MixedContent) {
  auto doc = Parse("<p>before<b>bold</b>after</p>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->children().size(), 3u);
  EXPECT_TRUE(doc->root()->children()[0]->is_text());
  EXPECT_TRUE(doc->root()->children()[1]->is_element());
  EXPECT_EQ(doc->root()->InnerText(), "beforeboldafter");
}

TEST(XmlParserTest, WhitespaceTextDiscardedByDefault) {
  auto doc = Parse("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 1u);
}

TEST(XmlParserTest, WhitespaceTextKeptWhenRequested) {
  ParseOptions options;
  options.discard_whitespace_text = false;
  auto doc = Parse("<a>\n  <b/>\n</a>", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 3u);
}

TEST(XmlParserTest, PredefinedEntities) {
  auto doc = Parse("<t>a &lt; b &amp;&amp; c &gt; d &quot;&apos;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "a < b && c > d \"'");
}

TEST(XmlParserTest, EntitiesInAttributes) {
  auto doc = Parse("<t a=\"x &amp; y &lt;z&gt;\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root()->FindAttribute("a"), "x & y <z>");
}

TEST(XmlParserTest, DecimalCharacterReference) {
  auto doc = Parse("<t>&#65;&#66;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "AB");
}

TEST(XmlParserTest, HexCharacterReference) {
  auto doc = Parse("<t>&#x41;&#x6a;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "Aj");
}

TEST(XmlParserTest, Utf8CharacterReference) {
  auto doc = Parse("<t>&#233;</t>");  // e-acute -> 2-byte UTF-8
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "\xC3\xA9");
}

TEST(XmlParserTest, CData) {
  auto doc = Parse("<t><![CDATA[<not> parsed & raw]]></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->InnerText(), "<not> parsed & raw");
  EXPECT_EQ(doc->root()->children()[0]->kind(), NodeKind::kCData);
}

TEST(XmlParserTest, CommentsDroppedByDefault) {
  auto doc = Parse("<t><!-- hidden --><b/></t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->children().size(), 1u);
}

TEST(XmlParserTest, CommentsKeptWhenRequested) {
  ParseOptions options;
  options.keep_comments = true;
  auto doc = Parse("<t><!-- hidden --></t>", options);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->children().size(), 1u);
  EXPECT_EQ(doc->root()->children()[0]->kind(), NodeKind::kComment);
  EXPECT_EQ(doc->root()->children()[0]->text(), " hidden ");
}

TEST(XmlParserTest, DoctypeSkipped) {
  auto doc = Parse(
      "<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]>\n<note>x</note>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->name(), "note");
}

TEST(XmlParserTest, ProcessingInstructionSkipped) {
  auto doc = Parse("<?xml-stylesheet href=\"s.css\"?><r><?php x?></r>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->root()->children().empty());
}

TEST(XmlParserTest, SelfClosingWithAttributes) {
  auto doc = Parse("<a><b x=\"1\"/><b x=\"2\"/></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->ElementChildCount(), 2u);
}

TEST(XmlParserTest, TrailingCommentAllowed) {
  auto doc = Parse("<r/><!-- trailing -->");
  EXPECT_TRUE(doc.ok());
}

TEST(XmlParserTest, DeepNesting) {
  std::string xml;
  for (int i = 0; i < 200; ++i) xml += "<n>";
  xml += "x";
  for (int i = 0; i < 200; ++i) xml += "</n>";
  auto doc = Parse(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->CountElements(), 200u);
}

TEST(XmlParserTest, FindChildElements) {
  auto doc = Parse("<cast><star>a</star><extra/><star>b</star></cast>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->FindChildElements("star").size(), 2u);
  EXPECT_NE(doc->root()->FindChildElement("extra"), nullptr);
  EXPECT_EQ(doc->root()->FindChildElement("nope"), nullptr);
}

TEST(XmlParserTest, ErrorPositionsReported) {
  auto doc = Parse("<a>\n  <b>\n</a>");
  ASSERT_FALSE(doc.ok());
  // The mismatched end tag is on line 3.
  EXPECT_NE(doc.status().message().find("3:"), std::string::npos)
      << doc.status().ToString();
}

// ---- Parameterized malformed-input sweep -------------------------------

class MalformedXmlTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedXmlTest, ReportsCorruption) {
  auto doc = Parse(GetParam());
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
  auto doc = Parse(xml);
  ASSERT_TRUE(doc.ok());
  std::string serialized = Serialize(*doc);
  auto doc2 = Parse(serialized);
  ASSERT_TRUE(doc2.ok()) << serialized;
  EXPECT_EQ(doc2->root()->name(), "films");
  const Node* picture = doc2->root()->FindChildElement("picture");
  ASSERT_NE(picture, nullptr);
  EXPECT_EQ(*picture->FindAttribute("title"), "Rear & Window");
  EXPECT_EQ(picture->FindChildElement("director")->InnerText(),
            "Hitchcock");
}

TEST(XmlSerializerTest, CompactModeSingleLine) {
  auto doc = Parse("<a><b>x</b></a>");
  SerializeOptions options;
  options.indent = 0;
  options.declaration = false;
  EXPECT_EQ(Serialize(*doc, options), "<a><b>x</b></a>");
}

TEST(XmlSerializerTest, EmptyElementSelfCloses) {
  auto doc = Parse("<a><b></b></a>");
  SerializeOptions options;
  options.indent = 0;
  options.declaration = false;
  EXPECT_EQ(Serialize(*doc, options), "<a><b/></a>");
}

TEST(XmlSerializerTest, DoubleRoundTripIsStable) {
  auto doc = Parse("<a x=\"1\"><b>text</b><c/><d>more text</d></a>");
  ASSERT_TRUE(doc.ok());
  std::string once = Serialize(*doc);
  auto doc2 = Parse(once);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(Serialize(*doc2), once);
}

// ---- ParseLimits hardening ------------------------------------------

TEST(XmlParseLimitsTest, DepthAtTheBoundIsAcceptedOneDeeperIsNot) {
  ParseOptions options;
  options.limits.max_depth = 3;
  EXPECT_TRUE(Parse("<a><b><c/></b></a>", options).ok());
  auto too_deep = Parse("<a><b><c><d/></c></b></a>", options);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kOutOfRange);
  // The error carries a position like every other parse diagnostic.
  EXPECT_NE(too_deep.status().ToString().find("1:"), std::string::npos)
      << too_deep.status().ToString();
}

TEST(XmlParseLimitsTest, AttributeCountCap) {
  ParseOptions options;
  options.limits.max_attributes_per_element = 2;
  EXPECT_TRUE(Parse("<a x=\"1\" y=\"2\"/>", options).ok());
  auto over = Parse("<a x=\"1\" y=\"2\" z=\"3\"/>", options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(XmlParseLimitsTest, EntityBudgetIsDocumentWide) {
  ParseOptions options;
  options.limits.max_entity_references = 3;
  // Three references across separate nodes: exactly at the budget.
  EXPECT_TRUE(Parse("<a x=\"&lt;\"><b>&gt;</b>&amp;</a>", options).ok());
  auto over = Parse("<a x=\"&lt;\"><b>&gt;&#65;</b>&amp;</a>", options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);
}

TEST(XmlParseLimitsTest, InputSizeCap) {
  ParseOptions options;
  options.limits.max_input_bytes = 16;
  EXPECT_TRUE(Parse("<abcdefghijkl/>", options).ok());
  auto over = Parse("<abcdefghijklmnopq/>", options);
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
  EXPECT_TRUE(Parse(deep, options).ok());
}

TEST(XmlParseLimitsTest, DepthCapCannotBeDisabled) {
  for (int max_depth : {0, -1}) {
    ParseOptions options;
    options.limits.max_depth = max_depth;
    auto doc = Parse("<a/>", options);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    StreamHandler ignore;
    EXPECT_EQ(StreamParse("<a/>", &ignore, options).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(XmlParseLimitsTest, GrammarViolationsStayCorruption) {
  // Limits must not reclassify ordinary malformedness.
  auto doc = Parse("<a><b></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kCorruption);
}

TEST(XmlParserTest, DeclarationVersionAndEncodingAreValidated) {
  // Declaration values are serialized verbatim, so garbage accepted
  // here would round-trip into unparseable output (found by fuzzing).
  EXPECT_FALSE(Parse("<?xml version=\"1.0f>&\"?><a/>").ok());
  EXPECT_FALSE(Parse("<?xml version=\"2.0\"?><a/>").ok());
  EXPECT_FALSE(Parse("<?xml version=\"1.\"?><a/>").ok());
  EXPECT_FALSE(
      Parse("<?xml version=\"1.0\" encoding=\"U TF8\"?><a/>").ok());
  EXPECT_FALSE(
      Parse("<?xml version=\"1.0\" encoding=\"8bit\"?><a/>").ok());
  auto ok = Parse("<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><a/>");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->encoding(), "ISO-8859-1");
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
