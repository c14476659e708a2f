// Tests for semantic query rewriting: a query written for one schema
// retrieves from a heterogeneous schema after concept-level rewriting
// (the paper's Figure 1 pair as the cross-schema fixture).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/query_rewriter.h"
#include "datasets/generator.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"
#include "xml/path_query.h"

namespace xsdf::core {
namespace {

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

TEST(QueryRewriterTest, GroundsStepsToConcepts) {
  auto docs = datasets::Figure1Documents();
  QueryRewriter rewriter(&Network());
  auto rewriting =
      rewriter.RewriteOverXml("/films/picture", {docs[0].xml});
  ASSERT_TRUE(rewriting.ok()) << rewriting.status().ToString();
  ASSERT_EQ(rewriting->step_concepts.size(), 2u);
  // Both steps ground to some concept.
  EXPECT_NE(rewriting->step_concepts[0], wordnet::kInvalidConcept);
  EXPECT_NE(rewriting->step_concepts[1], wordnet::kInvalidConcept);
}

TEST(QueryRewriterTest, RewritingsIncludeSynonyms) {
  auto docs = datasets::Figure1Documents();
  QueryRewriter rewriter(&Network());
  auto rewriting = rewriter.RewriteOverXml("//film", {docs[0].xml});
  ASSERT_TRUE(rewriting.ok());
  // film grounds to the movie synset; movie/picture/... appear as
  // alternatives.
  bool movie_alternative = false;
  for (const std::string& q : rewriting->queries) {
    if (q == "//movie") movie_alternative = true;
  }
  EXPECT_TRUE(movie_alternative)
      << "rewritings: " << rewriting->queries.size();
  // The original query is always kept.
  EXPECT_NE(std::find(rewriting->queries.begin(),
                      rewriting->queries.end(), "//film"),
            rewriting->queries.end());
}

TEST(QueryRewriterTest, CrossSchemaRetrieval) {
  // The headline scenario: a query written against Figure 1's first
  // schema retrieves from the second schema only after rewriting.
  auto docs = datasets::Figure1Documents();
  auto matches_b = [&](const xml::PathQuery& query) {
    auto results = query.Evaluate(docs[1].xml);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    return results.ok() ? results->matches.size() : 0;
  };

  const std::string original = "//picture";
  auto original_query = xml::PathQuery::Parse(original);
  ASSERT_TRUE(original_query.ok());
  EXPECT_EQ(matches_b(*original_query), 0u)
      << "schema B has no <picture> tags";

  QueryRewriter rewriter(&Network());
  auto rewriting =
      rewriter.RewriteOverXml(original, {docs[0].xml, docs[1].xml});
  ASSERT_TRUE(rewriting.ok());
  bool matched = false;
  for (const std::string& q : rewriting->queries) {
    auto rewritten = xml::PathQuery::Parse(q);
    ASSERT_TRUE(rewritten.ok()) << q;
    if (matches_b(*rewritten) > 0) matched = true;
  }
  EXPECT_TRUE(matched)
      << "no rewriting matched schema B; rewritings tried: "
      << rewriting->queries.size();
}

TEST(QueryRewriterTest, PreservesPredicatesAndAxes) {
  auto docs = datasets::Figure1Documents();
  QueryRewriter rewriter(&Network());
  auto rewriting = rewriter.RewriteOverXml(
      "/films//picture[@title='Rear Window']", {docs[0].xml});
  ASSERT_TRUE(rewriting.ok());
  for (const std::string& q : rewriting->queries) {
    EXPECT_NE(q.find("[@title='Rear Window']"), std::string::npos) << q;
    EXPECT_EQ(q.find("//"), q.find("/") == 0 ? q.find("//") : 0u);
  }
  // The original shape (child + descendant axes) is among them.
  EXPECT_NE(std::find(rewriting->queries.begin(),
                      rewriting->queries.end(),
                      "/films//picture[@title='Rear Window']"),
            rewriting->queries.end());
}

TEST(QueryRewriterTest, BoundedExpansion) {
  auto docs = datasets::Figure1Documents();
  QueryRewriter rewriter(&Network());
  auto rewriting = rewriter.RewriteOverXml(
      "/films/picture/cast/star", {docs[0].xml}, /*max_rewritings=*/8);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_LE(rewriting->queries.size(), 8u);
  EXPECT_GE(rewriting->queries.size(), 2u);
}

TEST(QueryRewriterTest, UnknownLabelsPassThrough) {
  QueryRewriter rewriter(&Network());
  auto rewriting = rewriter.RewriteOverXml(
      "//zzunknownzz", {"<zzunknownzz>x</zzunknownzz>"});
  ASSERT_TRUE(rewriting.ok());
  EXPECT_EQ(rewriting->queries,
            (std::vector<std::string>{"//zzunknownzz"}));
  EXPECT_EQ(rewriting->step_concepts[0], wordnet::kInvalidConcept);
}

TEST(QueryRewriterTest, MalformedQueryRejected) {
  QueryRewriter rewriter(&Network());
  auto rewriting = rewriter.RewriteOverXml("///", {"<a/>"});
  EXPECT_FALSE(rewriting.ok());
}

TEST(QueryRewriterTest, MalformedCorpusRejected) {
  QueryRewriter rewriter(&Network());
  auto rewriting = rewriter.RewriteOverXml("//a", {"<broken>"});
  EXPECT_FALSE(rewriting.ok());
}

}  // namespace
}  // namespace xsdf::core
