// Tests for the XPath-lite query engine used by the semantic
// query-rewriting application and `xsdf query`: the one-pass stream
// evaluator, checked case by case and, over generated documents and
// queries, against the recursive DOM matcher of the test-only oracle
// library.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "oracles/dom.h"
#include "prop/generators.h"
#include "xml/parser.h"
#include "xml/path_query.h"

namespace xsdf::xml {
namespace {

constexpr const char* kMovieXml = R"(<films>
    <picture title="Rear Window">
      <director>Hitchcock</director>
      <cast><star>Stewart</star><star>Kelly</star></cast>
    </picture>
    <picture title="Vertigo">
      <cast><star>Stewart</star></cast>
    </picture>
    <short><star>Cameo</star></short>
  </films>)";

/// (name, inner text) of every match of `query` on `xml`, in order.
std::vector<std::pair<std::string, std::string>> Matches(
    std::string_view query, std::string_view xml) {
  auto compiled = PathQuery::Parse(query);
  EXPECT_TRUE(compiled.ok()) << query;
  if (!compiled.ok()) return {};
  auto results = compiled->Evaluate(xml);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  if (!results.ok()) return {};
  std::vector<std::pair<std::string, std::string>> out;
  for (const PathMatch& match : results->matches) {
    out.emplace_back(match.name, std::string(results->InnerText(match)));
  }
  return out;
}

size_t Count(std::string_view query) {
  return Matches(query, kMovieXml).size();
}

TEST(PathQueryTest, AbsoluteChildPath) {
  EXPECT_EQ(Count("/films/picture/cast/star"), 3u);
}

TEST(PathQueryTest, RootOnly) {
  auto results = Matches("/films", kMovieXml);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].first, "films");
  EXPECT_EQ(results[0].second, "HitchcockStewartKellyStewartCameo");
}

TEST(PathQueryTest, WrongRootMatchesNothing) {
  EXPECT_EQ(Count("/movies/picture"), 0u);
}

TEST(PathQueryTest, DescendantAnywhere) {
  EXPECT_EQ(Count("//star"), 4u);  // includes <short>'s star
}

TEST(PathQueryTest, MixedDescendantAndChild) {
  EXPECT_EQ(Count("/films//star"), 4u);
  EXPECT_EQ(Count("/films/picture//star"), 3u);
}

TEST(PathQueryTest, WildcardStep) {
  EXPECT_EQ(Count("/films/*/cast"), 2u);
  EXPECT_EQ(Count("/films/*"), 3u);
}

TEST(PathQueryTest, RelativeQueryIsDescendant) {
  EXPECT_EQ(Count("star"), 4u);
}

TEST(PathQueryTest, AttributePresencePredicate) {
  EXPECT_EQ(Count("//picture[@title]"), 2u);
  EXPECT_EQ(Count("//picture[@year]"), 0u);
}

TEST(PathQueryTest, AttributeValuePredicate) {
  auto results = Matches("//picture[@title='Vertigo']", kMovieXml);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].first, "picture");
  EXPECT_EQ(results[0].second, "Stewart");
  EXPECT_EQ(Count("//picture[@title=\"Vertigo\"]"), 1u);
}

TEST(PathQueryTest, PredicateOnInnerStep) {
  EXPECT_EQ(Count("//picture[@title='Rear Window']/cast/star"), 2u);
}

TEST(PathQueryTest, DocumentOrderAndNoDuplicates) {
  auto results = Matches("//a", "<a>1<a>2<a>3</a></a></a>");
  ASSERT_EQ(results.size(), 3u);
  // Outermost first, each once.
  EXPECT_EQ(results[0].second, "123");
  EXPECT_EQ(results[1].second, "23");
  EXPECT_EQ(results[2].second, "3");
}

TEST(PathQueryTest, MatchesComeOutInDocumentOrder) {
  // The inner <b> closes a deeper match attempt before the outer <a>'s
  // own child <b>; document order puts "one" first.
  auto results =
      Matches("//a/b", "<a><x><a><b>one</b></a></x><b>two</b></a>");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].second, "one");
  EXPECT_EQ(results[1].second, "two");
}

TEST(PathQueryTest, CDataCountsAsInnerText) {
  auto results = Matches("//t", "<r><t>a<![CDATA[<b>]]>c</t></r>");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].second, "a<b>c");
}

TEST(PathQueryTest, ManyDescendantStepsStayLinear) {
  // The recursive matcher takes minutes here; the evaluator visits each
  // element once per step.
  std::string chain;
  for (int i = 0; i < 200; ++i) chain += "<a>";
  for (int i = 0; i < 200; ++i) chain += "</a>";
  EXPECT_EQ(Matches("//a//a//a//a//a//a//a//a", chain).size(), 193u);
}

TEST(PathQueryTest, ParseErrorsAreReturned) {
  auto query = PathQuery::Parse("//a");
  ASSERT_TRUE(query.ok());
  auto results = query->Evaluate("<a><b></a>");
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kCorruption);
  ParseOptions shallow;
  shallow.limits.max_depth = 1;
  EXPECT_EQ(query->Evaluate("<a><a/></a>", shallow).status().code(),
            StatusCode::kOutOfRange);
}

/// A random query of 1-3 steps over the element and attribute names of
/// `doc`, so that steps match often.
std::string RandomQuery(Rng& rng, const oracles::Document& doc) {
  std::vector<const oracles::Node*> elements;
  std::vector<const oracles::Node*> stack = {doc.root()};
  while (!stack.empty()) {
    const oracles::Node* node = stack.back();
    stack.pop_back();
    if (!node->is_element()) continue;
    elements.push_back(node);
    for (const oracles::Node* child : node->children()) {
      stack.push_back(child);
    }
  }
  const int steps = 1 + static_cast<int>(rng.UniformInt(3));
  std::string query;
  for (int s = 0; s < steps; ++s) {
    const uint64_t axis = rng.UniformInt(3);
    if (s > 0 || axis != 2) query += axis == 0 ? "//" : "/";
    const oracles::Node& element = *elements[rng.UniformInt(elements.size())];
    query += rng.Bernoulli(0.2) ? "*" : element.name();
    const std::vector<oracles::Attribute>& attrs = element.attributes();
    if (!attrs.empty() && rng.Bernoulli(0.3)) {
      const oracles::Attribute& attr = attrs[rng.UniformInt(attrs.size())];
      query += "[@" + attr.name;
      if (rng.Bernoulli(0.5)) query += "='" + attr.value + "'";
      query += "]";
    }
  }
  return query;
}

TEST(PathQueryProp, EvaluatorMatchesTheDomOracleInDocumentOrder) {
  Rng rng(0x9a7c0001);
  size_t matched = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string xml = propgen::GenerateXmlDocument(rng);
    auto doc = oracles::ParseDom(xml);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    for (int q = 0; q < 8; ++q) {
      const std::string query_text = RandomQuery(rng, *doc);
      auto query = PathQuery::Parse(query_text);
      // A value holding ' or ] cannot be quoted in the query syntax.
      if (!query.ok()) continue;
      std::vector<std::pair<std::string, std::string>> expected;
      for (const oracles::Node* node : oracles::MatchPath(*query, *doc)) {
        expected.emplace_back(node->name(), node->InnerText());
      }
      ASSERT_EQ(Matches(query_text, xml), expected)
          << "doc " << i << " query " << query_text << "\n" << xml;
      matched += expected.size();
    }
  }
  EXPECT_GT(matched, 1000u);
}

class MalformedQueryTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedQueryTest, Rejected) {
  auto query = PathQuery::Parse(GetParam());
  ASSERT_FALSE(query.ok()) << GetParam();
  EXPECT_EQ(query.status().code(), StatusCode::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, MalformedQueryTest,
    ::testing::Values("", "/", "//", "/a//", "/a/", "/a[b]",
                      "/a[@]", "/a[@x='unterminated]",
                      "/a[@x=unquoted]", "/a[@x", "/a[]"));

}  // namespace
}  // namespace xsdf::xml
