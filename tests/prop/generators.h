#ifndef XSDF_TESTS_PROP_GENERATORS_H_
#define XSDF_TESTS_PROP_GENERATORS_H_

#include <string>
#include <string_view>

#include "common/rng.h"
#include "wordnet/semantic_network.h"
#include "wordnet/wndb.h"
#include "xml/parser.h"

/// Deterministic input generators shared by the property tests, the
/// fuzz seed-corpus builder (tools/make_fuzz_corpus), and the
/// structured WNDB mutator in fuzz/. Everything draws from an
/// explicitly seeded common::Rng — no std::random_device, no global
/// state — so a failing seed reproduces bit-identically anywhere.
namespace xsdf::propgen {

// ====================== XML document generation ======================

struct XmlGenOptions {
  /// Maximum element nesting depth of generated documents.
  int max_depth = 5;
  /// Maximum child constructs per element.
  int max_children = 4;
  /// Maximum attributes per element.
  int max_attributes = 3;
  /// Allow CDATA sections, comments, processing instructions, DOCTYPE.
  bool allow_cdata = true;
  bool allow_misc = true;
  /// Mix entity and character references into text and attributes.
  bool allow_entities = true;
};

/// Generates a random well-formed XML document as text. The result is
/// always accepted by xml::StreamParse under default options.
std::string GenerateXmlDocument(Rng& rng, const XmlGenOptions& options = {});

/// Tight parse limits, so the status oracles and the parser golden
/// exercise the limit paths often.
xml::ParseOptions TightXmlOptions();

// ====================== Mini-lexicon generation ======================

struct LexiconGenOptions {
  int min_concepts = 4;
  int max_concepts = 32;
  /// Probability that a concept reuses an existing lemma (polysemy).
  double polysemy_rate = 0.3;
  /// Probability that a concept gets a corpus frequency.
  double tagged_rate = 0.6;
};

/// Generates a random valid semantic network. Concepts are created
/// grouped by part of speech (all nouns first, then verbs, adjectives,
/// adverbs) so that WriteWndb -> ParseWndb -> WriteWndb is
/// byte-identical: the WNDB data files themselves store synsets grouped
/// per pos file, so a pos-grouped network survives the id relabeling of
/// a parse round trip with its lex_id assignment intact.
wordnet::SemanticNetwork GenerateMiniLexicon(
    Rng& rng, const LexiconGenOptions& options = {});

// ====================== WNDB fuzz container ==========================
//
// libFuzzer mutates one flat byte buffer, but ParseWndb consumes a map
// of named files. The container is the bridge: files are concatenated
// with one-line "%%file <name>" headers. Seeds are packed from
// WriteWndb output; the harness unpacks before parsing.

std::string PackWndbContainer(const wordnet::WndbFiles& files);
wordnet::WndbFiles UnpackWndbContainer(std::string_view blob);

// ====================== Mutators =====================================

/// Applies `edits` random byte-level edits (overwrite, insert, erase,
/// chunk duplication) to `input`.
std::string MutateBytes(Rng& rng, std::string_view input, int edits);

/// Structure-aware WNDB mutator: unpacks the container, picks a record
/// line of one file and rewrites a single whitespace-separated field
/// (numeric nudge, pointer-symbol swap, field duplication/drop,
/// truncation), then repacks. Mutating fields of valid records instead
/// of raw bytes keeps the header/offset scaffolding intact, so
/// coverage reaches the per-field validation paths rather than dying
/// at the first offset check. Falls back to MutateBytes when the blob
/// has no recognizable record line.
std::string MutateWndbContainer(Rng& rng, std::string_view blob);

}  // namespace xsdf::propgen

#endif  // XSDF_TESTS_PROP_GENERATORS_H_
