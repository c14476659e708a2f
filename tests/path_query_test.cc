// Tests for the XPath-lite query engine used by the semantic
// query-rewriting application.

#include <gtest/gtest.h>

#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "wordnet/mini_wordnet.h"
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

Document MovieDoc() {
  auto doc = Parse(kMovieXml);
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

std::vector<std::string> Names(const std::vector<const Node*>& nodes) {
  std::vector<std::string> out;
  for (const Node* node : nodes) out.push_back(node->name());
  return out;
}

TEST(PathQueryTest, AbsoluteChildPath) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("/films/picture/cast/star");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Evaluate(doc).size(), 3u);
}

TEST(PathQueryTest, RootOnly) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("/films");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(Names(query->Evaluate(doc)),
            (std::vector<std::string>{"films"}));
}

TEST(PathQueryTest, WrongRootMatchesNothing) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("/movies/picture");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query->Evaluate(doc).empty());
}

TEST(PathQueryTest, DescendantAnywhere) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("//star");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Evaluate(doc).size(), 4u);  // includes <short>'s star
}

TEST(PathQueryTest, MixedDescendantAndChild) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("/films//star");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Evaluate(doc).size(), 4u);
  auto scoped = PathQuery::Parse("/films/picture//star");
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(scoped->Evaluate(doc).size(), 3u);
}

TEST(PathQueryTest, WildcardStep) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("/films/*/cast");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Evaluate(doc).size(), 2u);
  auto any_child = PathQuery::Parse("/films/*");
  ASSERT_TRUE(any_child.ok());
  EXPECT_EQ(any_child->Evaluate(doc).size(), 3u);
}

TEST(PathQueryTest, RelativeQueryIsDescendant) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("star");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Evaluate(doc).size(), 4u);
}

TEST(PathQueryTest, AttributePresencePredicate) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("//picture[@title]");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Evaluate(doc).size(), 2u);
  auto missing = PathQuery::Parse("//picture[@year]");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->Evaluate(doc).empty());
}

TEST(PathQueryTest, AttributeValuePredicate) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("//picture[@title='Vertigo']");
  ASSERT_TRUE(query.ok());
  auto results = query->Evaluate(doc);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(*results[0]->FindAttribute("title"), "Vertigo");
  auto double_quoted = PathQuery::Parse("//picture[@title=\"Vertigo\"]");
  ASSERT_TRUE(double_quoted.ok());
  EXPECT_EQ(double_quoted->Evaluate(doc).size(), 1u);
}

TEST(PathQueryTest, PredicateOnInnerStep) {
  Document doc = MovieDoc();
  auto query = PathQuery::Parse("//picture[@title='Rear Window']/cast/star");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Evaluate(doc).size(), 2u);
}

TEST(PathQueryTest, DocumentOrderAndNoDuplicates) {
  auto doc = Parse("<a><a><a/></a></a>");
  ASSERT_TRUE(doc.ok());
  auto query = PathQuery::Parse("//a");
  ASSERT_TRUE(query.ok());
  auto results = query->Evaluate(*doc);
  EXPECT_EQ(results.size(), 3u);
  // Outermost first.
  EXPECT_EQ(results[0], doc->root());
}

TEST(PathQueryTest, EvaluateOnLabeledTree) {
  auto network = wordnet::BuildMiniWordNet();
  ASSERT_TRUE(network.ok());
  core::LabelSpace space(&*network);
  auto tree = core::BuildTreeStreaming(kMovieXml, *network, ParseOptions{},
                                       /*include_values=*/true, &space);
  ASSERT_TRUE(tree.ok());
  auto query = PathQuery::Parse("//star");
  ASSERT_TRUE(query.ok());
  auto ids = query->Evaluate(*tree);
  EXPECT_EQ(ids.size(), 4u);
  for (NodeId id : ids) {
    EXPECT_EQ(tree->label(id), "star");
    EXPECT_EQ(tree->kind(id), TreeNodeKind::kElement);
  }
  // Labels are preprocessed: "films" is matched by its stem.
  auto stemmed = PathQuery::Parse("/film/picture/cast/star");
  ASSERT_TRUE(stemmed.ok());
  EXPECT_EQ(stemmed->Evaluate(*tree).size(), 3u);
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
