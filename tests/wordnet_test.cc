// Unit tests for the semantic network model (paper Definition 2):
// concepts, synonym indexing, typed relations with inverses, taxonomy
// utilities (depth, LCS, rings), and the weighted variant's cumulative
// frequencies.

#include <gtest/gtest.h>

#include "oracles/graph_walks.h"
#include "sim/kernels.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/semantic_network.h"

namespace xsdf::wordnet {
namespace {

/// entity -> {object, living} ; object -> {artifact}; living -> {person};
/// artifact -> {film_equipment}; person -> {actor}; actor -> {star}.
/// Diamond: celebrity under both person and... kept simple.
SemanticNetwork ToyNetwork() {
  SemanticNetwork network;
  ConceptId entity = network.AddConcept(
      PartOfSpeech::kNoun, {"entity"}, "that which exists");
  ConceptId object = network.AddConcept(
      PartOfSpeech::kNoun, {"object"}, "a tangible thing");
  ConceptId living = network.AddConcept(
      PartOfSpeech::kNoun, {"living_thing"}, "a living entity");
  ConceptId artifact = network.AddConcept(
      PartOfSpeech::kNoun, {"artifact"}, "a man made object");
  ConceptId person = network.AddConcept(
      PartOfSpeech::kNoun, {"person", "soul"}, "a human being");
  ConceptId actor = network.AddConcept(
      PartOfSpeech::kNoun, {"actor", "player"}, "a theatrical performer");
  ConceptId star_person = network.AddConcept(
      PartOfSpeech::kNoun, {"star", "principal"},
      "an actor who plays a principal role");
  ConceptId star_body = network.AddConcept(
      PartOfSpeech::kNoun, {"star"},
      "a celestial body of hot gases");
  network.AddEdge(object, Relation::kHypernym, entity);
  network.AddEdge(living, Relation::kHypernym, entity);
  network.AddEdge(artifact, Relation::kHypernym, object);
  network.AddEdge(person, Relation::kHypernym, living);
  network.AddEdge(actor, Relation::kHypernym, person);
  network.AddEdge(star_person, Relation::kHypernym, actor);
  network.AddEdge(star_body, Relation::kHypernym, object);
  network.SetFrequency(star_person, 10);
  network.SetFrequency(star_body, 40);
  network.FinalizeFrequencies();
  return network;
}

TEST(SemanticNetworkTest, SensesInInsertionOrder) {
  SemanticNetwork network = ToyNetwork();
  const auto& senses = network.Senses("star");
  ASSERT_EQ(senses.size(), 2u);
  EXPECT_EQ(network.GetConcept(senses[0]).gloss,
            "an actor who plays a principal role");
  EXPECT_EQ(network.SenseCount("star"), 2);
  EXPECT_EQ(network.SenseCount("actor"), 1);
  EXPECT_EQ(network.SenseCount("unknown"), 0);
}

TEST(SemanticNetworkTest, LemmaLookupIsNormalized) {
  SemanticNetwork network = ToyNetwork();
  EXPECT_TRUE(network.Contains("STAR"));
  EXPECT_TRUE(network.Contains("Living Thing"));  // space -> underscore
  EXPECT_TRUE(network.Contains("living-thing"));  // hyphen -> underscore
}

TEST(SemanticNetworkTest, SynonymsShareConcept) {
  SemanticNetwork network = ToyNetwork();
  EXPECT_EQ(network.Senses("person")[0], network.Senses("soul")[0]);
  EXPECT_EQ(network.Senses("actor")[0], network.Senses("player")[0]);
}

TEST(SemanticNetworkTest, InverseEdgesAdded) {
  SemanticNetwork network = ToyNetwork();
  ConceptId actor = network.Senses("actor")[0];
  ConceptId person = network.Senses("person")[0];
  EXPECT_EQ(network.Hypernyms(actor), (std::vector<ConceptId>{person}));
  bool found = false;
  for (ConceptId h : network.Hyponyms(person)) {
    if (h == actor) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SemanticNetworkTest, DuplicateEdgesIgnored) {
  SemanticNetwork network = ToyNetwork();
  ConceptId actor = network.Senses("actor")[0];
  ConceptId person = network.Senses("person")[0];
  size_t before = network.GetConcept(actor).edges.size();
  network.AddEdge(actor, Relation::kHypernym, person);
  EXPECT_EQ(network.GetConcept(actor).edges.size(), before);
}

TEST(SemanticNetworkTest, Depth) {
  SemanticNetwork network = ToyNetwork();
  EXPECT_EQ(network.Depth(network.Senses("entity")[0]), 0);
  EXPECT_EQ(network.Depth(network.Senses("object")[0]), 1);
  EXPECT_EQ(network.Depth(network.Senses("actor")[0]), 3);
  EXPECT_EQ(network.Depth(network.Senses("star")[0]), 4);
  EXPECT_EQ(network.Depth(network.Senses("star")[1]), 2);
  EXPECT_EQ(network.MaxDepth(), 4);
}

TEST(SemanticNetworkTest, AncestorDistances) {
  SemanticNetwork network = ToyNetwork();
  ConceptId star = network.Senses("star")[0];
  auto distances = network.AncestorDistances(star);
  EXPECT_EQ(distances.at(star), 0);
  EXPECT_EQ(distances.at(network.Senses("actor")[0]), 1);
  EXPECT_EQ(distances.at(network.Senses("entity")[0]), 4);
  EXPECT_EQ(distances.size(), 5u);
}

TEST(SemanticNetworkTest, LeastCommonSubsumer) {
  SemanticNetwork network = ToyNetwork();
  ConceptId star_person = network.Senses("star")[0];
  ConceptId star_body = network.Senses("star")[1];
  ConceptId actor = network.Senses("actor")[0];
  // Two star senses meet only at entity.
  EXPECT_EQ(oracles::LeastCommonSubsumer(network, star_person, star_body),
            network.Senses("entity")[0]);
  // A concept with its ancestor: the ancestor itself.
  EXPECT_EQ(oracles::LeastCommonSubsumer(network, star_person, actor), actor);
  EXPECT_EQ(oracles::LeastCommonSubsumer(network, actor, actor), actor);
}

// The graph-walk oracle and the ancestor-table kernel VSD reads.
TEST(SemanticNetworkTest, HypernymPathLength) {
  SemanticNetwork network = ToyNetwork();
  ConceptId star_person = network.Senses("star")[0];
  ConceptId star_body = network.Senses("star")[1];
  ConceptId actor = network.Senses("actor")[0];
  for (auto path_length : {&oracles::HypernymPathLength,
                           &sim::HypernymPathLength}) {
    EXPECT_EQ(path_length(network, star_person, star_body), 6);
    EXPECT_EQ(path_length(network, star_person, star_person), 0);
    EXPECT_EQ(path_length(network, actor, star_person), 1);
  }
}

TEST(SemanticNetworkTest, RingsOverRelations) {
  SemanticNetwork network = ToyNetwork();
  ConceptId actor = network.Senses("actor")[0];
  auto rings = network.Rings(actor, 2);
  ASSERT_EQ(rings.size(), 3u);
  EXPECT_EQ(rings[0], (std::vector<ConceptId>{actor}));
  // Distance 1: person (hypernym) and star_person (hyponym).
  EXPECT_EQ(rings[1].size(), 2u);
  // Distance 2: living_thing.
  EXPECT_EQ(rings[2].size(), 1u);
}

TEST(SemanticNetworkTest, CumulativeFrequencies) {
  SemanticNetwork network = ToyNetwork();
  ConceptId star_person = network.Senses("star")[0];
  ConceptId actor = network.Senses("actor")[0];
  ConceptId entity = network.Senses("entity")[0];
  // star_person: own 10 + smoothing 1 = 11.
  EXPECT_DOUBLE_EQ(network.CumulativeFrequency(star_person), 11.0);
  // actor: 11 + own smoothing 1.
  EXPECT_DOUBLE_EQ(network.CumulativeFrequency(actor), 12.0);
  // Monotone along hypernym chains.
  EXPECT_GE(network.CumulativeFrequency(entity),
            network.CumulativeFrequency(actor));
  // Root total equals the normalizer.
  EXPECT_DOUBLE_EQ(network.TotalFrequency(),
                   network.CumulativeFrequency(entity));
}

TEST(SemanticNetworkTest, MaxPolysemy) {
  SemanticNetwork network = ToyNetwork();
  EXPECT_EQ(network.MaxPolysemy(), 2);  // "star"
}

// MaxPolysemy() is computed once at finalization; mutation must not
// leave a stale value, before or after finalizing again.
TEST(SemanticNetworkTest, MaxPolysemyFollowsMutationAndRefinalize) {
  SemanticNetwork network = ToyNetwork();
  ASSERT_TRUE(network.finalized());
  ASSERT_EQ(network.MaxPolysemy(), 2);
  for (int i = 0; i < 3; ++i) {
    network.AddConcept(PartOfSpeech::kVerb, {"star"}, "to feature");
  }
  EXPECT_FALSE(network.finalized());
  EXPECT_EQ(network.MaxPolysemy(), 5);
  network.FinalizeFrequencies();
  EXPECT_EQ(network.MaxPolysemy(), 5);

  network.AddConcept(PartOfSpeech::kNoun, {"actor"}, "a doer");
  network.FinalizeFrequencies();
  EXPECT_EQ(network.MaxPolysemy(), 5);  // "actor" now has 2 senses
  EXPECT_EQ(network.SenseCount("actor"), 2);
}

TEST(SemanticNetworkTest, SetSenseOrder) {
  SemanticNetwork network = ToyNetwork();
  std::vector<ConceptId> senses = network.Senses("star");
  std::vector<ConceptId> reversed = {senses[1], senses[0]};
  ASSERT_TRUE(network
                  .SetSenseOrder("star", PartOfSpeech::kNoun, reversed)
                  .ok());
  EXPECT_EQ(network.Senses("star"), reversed);
  // Not a permutation -> error.
  EXPECT_FALSE(network
                   .SetSenseOrder("star", PartOfSpeech::kNoun,
                                  {senses[0], senses[0]})
                   .ok());
  EXPECT_FALSE(network
                   .SetSenseOrder("missing", PartOfSpeech::kNoun, {})
                   .ok());
}

TEST(RelationTest, SymbolRoundTrip) {
  for (Relation relation :
       {Relation::kHypernym, Relation::kInstanceHypernym,
        Relation::kHyponym, Relation::kInstanceHyponym,
        Relation::kMemberHolonym, Relation::kPartHolonym,
        Relation::kSubstanceHolonym, Relation::kMemberMeronym,
        Relation::kPartMeronym, Relation::kSubstanceMeronym,
        Relation::kAntonym, Relation::kAttribute, Relation::kDerivation,
        Relation::kSimilarTo, Relation::kAlsoSee}) {
    auto parsed = RelationFromSymbol(RelationToSymbol(relation));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, relation);
  }
  EXPECT_FALSE(RelationFromSymbol("??").ok());
}

TEST(RelationTest, InversePairs) {
  EXPECT_EQ(InverseRelation(Relation::kHypernym), Relation::kHyponym);
  EXPECT_EQ(InverseRelation(Relation::kHyponym), Relation::kHypernym);
  EXPECT_EQ(InverseRelation(Relation::kMemberMeronym),
            Relation::kMemberHolonym);
  EXPECT_EQ(InverseRelation(Relation::kAntonym), Relation::kAntonym);
  // Involution.
  for (Relation relation :
       {Relation::kInstanceHypernym, Relation::kPartHolonym,
        Relation::kSubstanceMeronym, Relation::kDerivation}) {
    EXPECT_EQ(InverseRelation(InverseRelation(relation)), relation);
  }
}

TEST(PosTest, CharRoundTrip) {
  for (PartOfSpeech pos :
       {PartOfSpeech::kNoun, PartOfSpeech::kVerb, PartOfSpeech::kAdjective,
        PartOfSpeech::kAdverb}) {
    auto parsed = PosFromChar(PosToChar(pos));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, pos);
  }
  EXPECT_EQ(*PosFromChar('s'), PartOfSpeech::kAdjective);  // satellite
  EXPECT_FALSE(PosFromChar('x').ok());
}

// ---- The curated mini-WordNet -------------------------------------------

class MiniWordNetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto result = BuildMiniWordNet();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    network_ = new SemanticNetwork(std::move(result).value());
  }
  static const SemanticNetwork& network() { return *network_; }

 private:
  static const SemanticNetwork* network_;
};

const SemanticNetwork* MiniWordNetTest::network_ = nullptr;

TEST_F(MiniWordNetTest, SizeAndCoverage) {
  EXPECT_GT(network().size(), 600u);
  EXPECT_GT(network().LemmaCount(), 1000u);
}

TEST_F(MiniWordNetTest, HeadHasWordNet21MaxPolysemy) {
  // The paper cites Max_polysemy = 33 for "head" in WordNet 2.1.
  EXPECT_EQ(network().SenseCount("head"), 33);
  EXPECT_EQ(network().MaxPolysemy(), 33);
}

TEST_F(MiniWordNetTest, StateHasEightSenses) {
  // The paper: "word 'state' has 8 different meanings".
  EXPECT_EQ(network().SenseCount("state"), 8);
}

TEST_F(MiniWordNetTest, KellyAmbiguityFromThePaper) {
  // Emmet Kelly the clown, Grace Kelly the princess, Gene Kelly the
  // dancer (paper §1).
  EXPECT_EQ(network().SenseCount("kelly"), 3);
  EXPECT_EQ(network().SenseCount("stewart"), 3);
  EXPECT_EQ(network().SenseCount("hitchcock"), 1);
}

TEST_F(MiniWordNetTest, EveryConceptHasGlossAndLemma) {
  for (const Concept& synset : network().concepts()) {
    EXPECT_FALSE(synset.synonyms.empty());
    EXPECT_FALSE(synset.gloss.empty()) << synset.label();
  }
}

TEST_F(MiniWordNetTest, NounGraphIsConnectedToEntity) {
  auto entity = network().Senses("entity");
  ASSERT_EQ(entity.size(), 1u);
  int reachable = 0;
  for (const Concept& synset : network().concepts()) {
    if (synset.pos != PartOfSpeech::kNoun) continue;
    auto ancestors = network().AncestorDistances(synset.id);
    if (ancestors.count(entity[0]) > 0) ++reachable;
  }
  // All noun synsets hang from entity.
  int nouns = 0;
  for (const Concept& synset : network().concepts()) {
    if (synset.pos == PartOfSpeech::kNoun) ++nouns;
  }
  EXPECT_EQ(reachable, nouns);
}

TEST_F(MiniWordNetTest, FrequenciesFavorFirstSenses) {
  // Zipf assignment: across polysemous lemmas, sense 1 should usually
  // dominate sense 2 (WordNet orders senses by frequency).
  int first_wins = 0;
  int comparisons = 0;
  for (const char* lemma : {"star", "play", "line", "state", "title",
                            "price", "name", "cast", "scene", "act"}) {
    const auto& senses = network().Senses(lemma);
    if (senses.size() < 2) continue;
    ++comparisons;
    if (network().GetConcept(senses[0]).frequency >=
        network().GetConcept(senses[1]).frequency) {
      ++first_wins;
    }
  }
  EXPECT_GE(first_wins * 2, comparisons);  // majority
}

TEST_F(MiniWordNetTest, ConceptKeyLookup) {
  auto kelly = MiniWordNetConceptByKey("grace_kelly.n");
  ASSERT_TRUE(kelly.ok());
  EXPECT_EQ(network().GetConcept(*kelly).label(), "grace_kelly");
  EXPECT_FALSE(MiniWordNetConceptByKey("no_such_key.n").ok());
}

TEST_F(MiniWordNetTest, InstanceRelationsResolve) {
  auto kelly = MiniWordNetConceptByKey("grace_kelly.n");
  ASSERT_TRUE(kelly.ok());
  std::vector<ConceptId> ups = network().Hypernyms(*kelly);
  ASSERT_FALSE(ups.empty());
  bool actress = false;
  for (ConceptId up : ups) {
    if (network().GetConcept(up).label() == "actress") actress = true;
  }
  EXPECT_TRUE(actress);
}

}  // namespace
}  // namespace xsdf::wordnet
