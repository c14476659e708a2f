// Unit tests for linguistic pre-processing (paper §3.2): tokenizer,
// stop words, the Porter stemmer (against its published vocabulary),
// compound tag splitting, and the combined pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "oracles/tokenizer_reference.h"
#include "text/compound.h"
#include "text/porter_stemmer.h"
#include "text/preprocess.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace xsdf::text {
namespace {

TEST(TokenizerTest, SplitsOnPunctuationAndWhitespace) {
  EXPECT_EQ(Tokenize("A wheelchair bound photographer"),
            (std::vector<std::string>{"a", "wheelchair", "bound",
                                      "photographer"}));
  EXPECT_EQ(Tokenize("spies,on;his:neighbors!"),
            (std::vector<std::string>{"spies", "on", "his", "neighbors"}));
}

TEST(TokenizerTest, Lowercases) {
  EXPECT_EQ(Tokenize("Rear WINDOW"),
            (std::vector<std::string>{"rear", "window"}));
}

TEST(TokenizerTest, KeepsDigitsInsideTokens) {
  EXPECT_EQ(Tokenize("mp3 player 1954"),
            (std::vector<std::string>{"mp3", "player", "1954"}));
}

TEST(TokenizerTest, StripsPossessive) {
  EXPECT_EQ(Tokenize("the director's cut"),
            (std::vector<std::string>{"the", "director", "cut"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... !!! ---").empty());
}

TEST(TokenizerTest, ScannerSlicesTheInput) {
  const std::string_view text = "Rear WINDOW's 1954 mp3";
  std::string buffer;
  TokenScanner scanner(text);
  ASSERT_TRUE(scanner.Next());
  EXPECT_EQ(scanner.raw(), "Rear");
  EXPECT_EQ(scanner.Lowercase(&buffer), "rear");
  ASSERT_TRUE(scanner.Next());
  EXPECT_EQ(scanner.raw(), "WINDOW");
  EXPECT_TRUE(scanner.has_letter());
  ASSERT_TRUE(scanner.Next());
  EXPECT_EQ(scanner.raw(), "1954");
  EXPECT_FALSE(scanner.has_letter());
  ASSERT_TRUE(scanner.Next());
  // No uppercase: the view is the input itself.
  EXPECT_EQ(scanner.Lowercase(&buffer).data(), text.data() + 19);
  EXPECT_FALSE(scanner.Next());
  EXPECT_FALSE(scanner.Next());
}

/// A string of `length` pieces drawn from letters of both cases,
/// digits, apostrophes, the UTF-8 right single quote (U+2019) and its
/// bytes alone, possessive `s`/`S`, punctuation, whitespace and other
/// high bytes.
std::string RandomTokenizerInput(Rng& rng, int length) {
  static const char* const kPieces[] = {
      "a", "Z", "q", "M", "s", "S", "0", "7", "'", "'s", "'S",
      "\xE2\x80\x99", "\xE2\x80\x99s", "\xE2", "\x80", "\x99", " ", "\t",
      "\n", ",", ".", "-", "_", "!", "&", ";", "(", ")", "\xC3\xA9", "\xFF"};
  std::string out;
  for (int i = 0; i < length; ++i) {
    out += kPieces[rng.UniformInt(std::size(kPieces))];
  }
  return out;
}

// Tokenize (the collector over TokenScanner) against the character
// loop it replaced, on generated strings and on fixed corner cases.
TEST(TokenizerTest, MatchesReferenceTokenizer) {
  const char* const fixed[] = {
      "", "'", "'s", "a'", "a's", "a'sb", "A'S", "a\xE2", "a\xE2\x80",
      "a\xE2\x80\x99", "a\xE2\x80\x99s", "a\xE2\x80\x99sb", "a\xE2bc",
      "a\xE2bs", "a\xE2bsc", "Director\xE2\x80\x99s cut", "O'Brien's",
      "mp3 player 1954", "ABC123def", "x's's", "it''s", "\xE2\x80\x99s"};
  for (const char* input : fixed) {
    EXPECT_EQ(Tokenize(input), oracles::ReferenceTokenize(input))
        << "input: " << input;
  }
  Rng rng(24);
  for (int i = 0; i < 20000; ++i) {
    const std::string input =
        RandomTokenizerInput(rng, static_cast<int>(rng.UniformInt(24)));
    ASSERT_EQ(Tokenize(input), oracles::ReferenceTokenize(input))
        << "input #" << i << ": " << input;
  }
}

TEST(TokenizerTest, HasLetter) {
  EXPECT_TRUE(HasLetter("a1"));
  EXPECT_FALSE(HasLetter("1954"));
  EXPECT_FALSE(HasLetter(""));
}

TEST(StopWordsTest, CommonWordsAreStopWords) {
  for (const char* word : {"the", "a", "of", "and", "his", "on", "is"}) {
    EXPECT_TRUE(IsStopWord(word)) << word;
  }
}

TEST(StopWordsTest, ContentWordsAreNot) {
  for (const char* word :
       {"movie", "director", "kelly", "photographer", "star"}) {
    EXPECT_FALSE(IsStopWord(word)) << word;
  }
}

TEST(StopWordsTest, ListIsSortedForBinarySearch) {
  // Binary search correctness depends on sortedness; probe boundary
  // pairs through the public API instead of exposing the table.
  EXPECT_TRUE(IsStopWord("a"));      // first entry
  EXPECT_TRUE(IsStopWord("yours"));  // last entry
}

TEST(StopWordsTest, RemoveStopWordsPreservesOrder) {
  EXPECT_EQ(RemoveStopWords({"a", "photographer", "on", "the", "roof"}),
            (std::vector<std::string>{"photographer", "roof"}));
}

// ---- Porter stemmer: published example vocabulary -----------------------

struct StemCase {
  const char* word;
  const char* stem;
};

class PorterStemmerTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemmerTest, MatchesReference) {
  EXPECT_EQ(PorterStem(GetParam().word), GetParam().stem)
      << "word: " << GetParam().word;
}

INSTANTIATE_TEST_SUITE_P(
    Vocabulary, PorterStemmerTest,
    ::testing::Values(
        // Step 1a
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"},
        // Step 1b
        StemCase{"feed", "feed"}, StemCase{"agreed", "agre"},
        StemCase{"plastered", "plaster"}, StemCase{"bled", "bled"},
        StemCase{"motoring", "motor"}, StemCase{"sing", "sing"},
        StemCase{"conflated", "conflat"}, StemCase{"troubled", "troubl"},
        StemCase{"sized", "size"}, StemCase{"hopping", "hop"},
        StemCase{"tanned", "tan"}, StemCase{"falling", "fall"},
        StemCase{"hissing", "hiss"}, StemCase{"fizzed", "fizz"},
        StemCase{"failing", "fail"}, StemCase{"filing", "file"},
        // Step 1c
        StemCase{"happy", "happi"}, StemCase{"sky", "sky"},
        // Step 2
        StemCase{"relational", "relat"}, StemCase{"conditional", "condit"},
        StemCase{"rational", "ration"}, StemCase{"valenci", "valenc"},
        StemCase{"hesitanci", "hesit"}, StemCase{"digitizer", "digit"},
        StemCase{"conformabli", "conform"}, StemCase{"radicalli", "radic"},
        StemCase{"differentli", "differ"}, StemCase{"vileli", "vile"},
        StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"},
        StemCase{"predication", "predic"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"},
        StemCase{"decisiveness", "decis"},
        StemCase{"hopefulness", "hope"}, StemCase{"callousness", "callous"},
        StemCase{"formaliti", "formal"}, StemCase{"sensitiviti", "sensit"},
        StemCase{"sensibiliti", "sensibl"},
        // Step 3
        StemCase{"triplicate", "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti", "electr"},
        StemCase{"electrical", "electr"}, StemCase{"hopeful", "hope"},
        StemCase{"goodness", "good"},
        // Step 4
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"gyroscopic", "gyroscop"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        // Step 5
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"cease", "ceas"}, StemCase{"controll", "control"},
        StemCase{"roll", "roll"},
        // Short words pass through
        StemCase{"by", "by"}, StemCase{"ox", "ox"}));

TEST(PorterStemmerTest, DomainWords) {
  EXPECT_EQ(PorterStem("movies"), "movi");  // over-stemmed, handled by
                                            // NormalizeToken's ladder
  EXPECT_EQ(PorterStem("directed"), "direct");
  EXPECT_EQ(PorterStem("films"), "film");
  EXPECT_EQ(PorterStem("actors"), "actor");
}

TEST(CompoundTest, UnderscoreDelimited) {
  EXPECT_EQ(SplitCompoundTag("Directed_By"),
            (std::vector<std::string>{"directed", "by"}));
  EXPECT_EQ(SplitCompoundTag("first_name"),
            (std::vector<std::string>{"first", "name"}));
}

TEST(CompoundTest, CamelCase) {
  EXPECT_EQ(SplitCompoundTag("FirstName"),
            (std::vector<std::string>{"first", "name"}));
  EXPECT_EQ(SplitCompoundTag("lastName"),
            (std::vector<std::string>{"last", "name"}));
}

TEST(CompoundTest, AcronymRuns) {
  EXPECT_EQ(SplitCompoundTag("ISBNNumber"),
            (std::vector<std::string>{"isbn", "number"}));
  EXPECT_EQ(SplitCompoundTag("XML"), (std::vector<std::string>{"xml"}));
}

TEST(CompoundTest, MixedDelimiters) {
  EXPECT_EQ(SplitCompoundTag("list-price.usd"),
            (std::vector<std::string>{"list", "price", "usd"}));
}

TEST(CompoundTest, SingleWordUnchanged) {
  EXPECT_EQ(SplitCompoundTag("director"),
            (std::vector<std::string>{"director"}));
}

TEST(CompoundTest, JoinCompound) {
  EXPECT_EQ(JoinCompound({"first", "name"}), "first_name");
  EXPECT_EQ(JoinCompound({"solo"}), "solo");
}

// ---- Pipeline with a toy lexicon ----------------------------------------

LexiconProbe ToyLexicon() {
  return [](const std::string& lemma) {
    static const std::set<std::string> kLexicon = {
        "first_name", "direct", "name", "movie", "star", "first"};
    return kLexicon.count(lemma) > 0;
  };
}

TEST(PreprocessTest, SimpleTagPassesThrough) {
  ProcessedLabel label = PreprocessTagName("star", ToyLexicon());
  EXPECT_EQ(label.label, "star");
  EXPECT_EQ(label.tokens, (std::vector<std::string>{"star"}));
  EXPECT_FALSE(label.compound_in_lexicon);
}

TEST(PreprocessTest, UnknownWordStemmedIntoLexicon) {
  // "directed" is not in the lexicon but its stem "direct" is.
  ProcessedLabel label = PreprocessTagName("directed", ToyLexicon());
  EXPECT_EQ(label.label, "direct");
}

TEST(PreprocessTest, CompoundMatchingSingleConcept) {
  ProcessedLabel label = PreprocessTagName("FirstName", ToyLexicon());
  EXPECT_EQ(label.label, "first_name");
  EXPECT_TRUE(label.compound_in_lexicon);
  EXPECT_EQ(label.tokens.size(), 1u);
}

TEST(PreprocessTest, CompoundWithoutSingleConcept) {
  ProcessedLabel label = PreprocessTagName("Directed_By", ToyLexicon());
  EXPECT_FALSE(label.compound_in_lexicon);
  // "by" is a stop word; "directed" stems to "direct".
  EXPECT_EQ(label.tokens, (std::vector<std::string>{"direct"}));
  EXPECT_EQ(label.label, "direct");
}

TEST(PreprocessTest, CompoundKeepsBothContentTokens) {
  ProcessedLabel label = PreprocessTagName("MovieStar", ToyLexicon());
  EXPECT_FALSE(label.compound_in_lexicon);
  EXPECT_EQ(label.tokens, (std::vector<std::string>{"movie", "star"}));
  EXPECT_EQ(label.label, "movie_star");
}

TEST(PreprocessTest, AllStopWordTagKeepsParts) {
  ProcessedLabel label = PreprocessTagName("OfThe", ToyLexicon());
  EXPECT_EQ(label.tokens.size(), 2u);  // nothing left after stop removal
}

TEST(PreprocessTest, TextValuePipeline) {
  std::vector<std::string> labels = PreprocessTextValue(
      "A movie's stars, directed in 1954!", ToyLexicon());
  // "a"/"in" are stop words; "1954" is a pure number; "stars" stems to
  // "star"; "directed" stems to "direct"; "movie" survives possessive.
  EXPECT_EQ(labels,
            (std::vector<std::string>{"movie", "star", "direct"}));
}

TEST(PreprocessTest, NormalizeTokenPrefersExactMatch) {
  EXPECT_EQ(NormalizeToken("star", ToyLexicon()), "star");
  EXPECT_EQ(NormalizeToken("stars", ToyLexicon()), "star");
  EXPECT_EQ(NormalizeToken("unknownword", ToyLexicon()), "unknownword");
}

TEST(PreprocessTest, NormalizeTokenPluralLadder) {
  LexiconProbe probe = [](const std::string& lemma) {
    return lemma == "movie" || lemma == "city" || lemma == "bus";
  };
  EXPECT_EQ(NormalizeToken("movies", probe), "movie");  // Porter fails
  EXPECT_EQ(NormalizeToken("cities", probe), "city");
  EXPECT_EQ(NormalizeToken("buses", probe), "bus");
}

}  // namespace
}  // namespace xsdf::text
