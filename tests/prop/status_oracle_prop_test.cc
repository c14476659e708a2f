// Differential "no crash, always a Status" oracles, run in plain
// ctest (no sanitizer runtime required): thousands of mutated XML
// documents and WNDB file sets are fed to the parsers, which must
// either succeed or return a non-OK Status — and whatever they accept
// must itself survive a further round trip. These are the same oracles
// the fuzz harnesses in fuzz/ enforce; running them here means every
// CI configuration exercises them, not just the sanitizer job.

#include <gtest/gtest.h>

#include <string>

#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "oracles/dom.h"
#include "prop/generators.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/wndb.h"
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

using propgen::TightXmlOptions;

TEST(StatusOracleProp, MutatedXmlNeverCrashesAndAcceptedInputIsStable) {
  Rng rng(0x0bac1e01);
  core::LabelSpace space(&Network());
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = propgen::GenerateXmlDocument(rng);
    text = propgen::MutateBytes(rng, text,
                                1 + static_cast<int>(rng.UniformInt(8)));
    auto doc = oracles::ParseDom(text, TightXmlOptions());
    if (!doc.ok()) {
      // The Status must carry a message; silent failures are bugs too.
      EXPECT_FALSE(doc.status().ToString().empty());
      ++rejected;
      continue;
    }
    ++accepted;
    // Anything accepted must round-trip and build a valid tree.
    oracles::SerializeOptions ser;
    ser.indent = 0;
    std::string serialized = oracles::SerializeDom(*doc, ser);
    auto reparsed = oracles::ParseDom(serialized, TightXmlOptions());
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << i
        << ": accepted input whose serialization is rejected: "
        << reparsed.status().ToString() << "\nserialized:\n"
        << serialized;
    auto tree = core::BuildTreeStreaming(text, Network(), TightXmlOptions(),
                                         /*include_values=*/true, &space);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  }
  // Mutation leaves some documents well-formed and breaks others; both
  // sides of the oracle must actually have been exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(StatusOracleProp, MutatedWndbNeverCrashesAndAcceptedInputIsStable) {
  Rng rng(0x0bac1e02);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 400; ++i) {
    wordnet::SemanticNetwork network = propgen::GenerateMiniLexicon(rng);
    auto files = wordnet::WriteWndb(network);
    ASSERT_TRUE(files.ok()) << files.status().ToString();
    std::string blob = propgen::PackWndbContainer(*files);
    blob = propgen::MutateWndbContainer(rng, blob);
    wordnet::WndbFiles mutated = propgen::UnpackWndbContainer(blob);
    auto parsed = wordnet::ParseWndb(mutated);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().ToString().empty());
      ++rejected;
      continue;
    }
    ++accepted;
    // Differential idempotence: a network the parser accepted must be
    // re-serializable, and the second write must be a fixed point.
    // (Write(Parse(m)) is compared with Write(Parse(Write(Parse(m)))),
    // not with m itself: AddConcept normalizes lemmas, so the first
    // round trip may canonicalize.)
    auto files2 = wordnet::WriteWndb(*parsed);
    ASSERT_TRUE(files2.ok())
        << "iteration " << i << ": accepted network failed to serialize: "
        << files2.status().ToString();
    auto parsed2 = wordnet::ParseWndb(*files2);
    ASSERT_TRUE(parsed2.ok())
        << "iteration " << i << ": rewrite of accepted input rejected: "
        << parsed2.status().ToString();
    auto files3 = wordnet::WriteWndb(*parsed2);
    ASSERT_TRUE(files3.ok()) << files3.status().ToString();
    ASSERT_EQ(*files2, *files3)
        << "iteration " << i << ": accepted mutant is not a fixed point";
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(StatusOracleProp, RawByteNoiseNeverCrashesTheWndbParser) {
  // Unstructured mutation hammers the lexical layer (truncated
  // records, binary bytes, missing newlines) that the field-level
  // mutator deliberately preserves.
  Rng rng(0x0bac1e03);
  wordnet::SemanticNetwork network = propgen::GenerateMiniLexicon(rng);
  auto files = wordnet::WriteWndb(network);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  std::string pristine = propgen::PackWndbContainer(*files);
  for (int i = 0; i < 400; ++i) {
    std::string blob = propgen::MutateBytes(
        rng, pristine, 1 + static_cast<int>(rng.UniformInt(32)));
    wordnet::WndbFiles mutated = propgen::UnpackWndbContainer(blob);
    auto parsed = wordnet::ParseWndb(mutated);  // must simply not crash
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().ToString().empty());
    }
  }
}

TEST(StatusOracleProp, EntityBudgetAndInputCapReturnOutOfRange) {
  xml::ParseOptions options;
  options.limits.max_entity_references = 4;
  std::string text = "<a>&amp;&amp;&amp;&amp;&amp;</a>";
  auto doc = oracles::ParseDom(text, options);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kOutOfRange)
      << doc.status().ToString();

  xml::ParseOptions small;
  small.limits.max_input_bytes = 8;
  auto capped = oracles::ParseDom("<aaaaaaaa/>", small);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange)
      << capped.status().ToString();
}

}  // namespace
}  // namespace xsdf
