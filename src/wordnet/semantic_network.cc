#include "wordnet/semantic_network.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <deque>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace xsdf::wordnet {

char PosToChar(PartOfSpeech pos) {
  switch (pos) {
    case PartOfSpeech::kNoun:
      return 'n';
    case PartOfSpeech::kVerb:
      return 'v';
    case PartOfSpeech::kAdjective:
      return 'a';
    case PartOfSpeech::kAdverb:
      return 'r';
  }
  return 'n';
}

Result<PartOfSpeech> PosFromChar(char c) {
  switch (c) {
    case 'n':
      return PartOfSpeech::kNoun;
    case 'v':
      return PartOfSpeech::kVerb;
    case 'a':
    case 's':
      return PartOfSpeech::kAdjective;
    case 'r':
      return PartOfSpeech::kAdverb;
    default:
      return Status::Corruption(std::string("unknown ss_type: ") + c);
  }
}

std::string_view RelationToSymbol(Relation relation) {
  switch (relation) {
    case Relation::kHypernym:
      return "@";
    case Relation::kInstanceHypernym:
      return "@i";
    case Relation::kHyponym:
      return "~";
    case Relation::kInstanceHyponym:
      return "~i";
    case Relation::kMemberHolonym:
      return "#m";
    case Relation::kPartHolonym:
      return "#p";
    case Relation::kSubstanceHolonym:
      return "#s";
    case Relation::kMemberMeronym:
      return "%m";
    case Relation::kPartMeronym:
      return "%p";
    case Relation::kSubstanceMeronym:
      return "%s";
    case Relation::kAntonym:
      return "!";
    case Relation::kAttribute:
      return "=";
    case Relation::kDerivation:
      return "+";
    case Relation::kSimilarTo:
      return "&";
    case Relation::kAlsoSee:
      return "^";
  }
  return "@";
}

Result<Relation> RelationFromSymbol(std::string_view symbol) {
  if (symbol == "@") return Relation::kHypernym;
  if (symbol == "@i") return Relation::kInstanceHypernym;
  if (symbol == "~") return Relation::kHyponym;
  if (symbol == "~i") return Relation::kInstanceHyponym;
  if (symbol == "#m") return Relation::kMemberHolonym;
  if (symbol == "#p") return Relation::kPartHolonym;
  if (symbol == "#s") return Relation::kSubstanceHolonym;
  if (symbol == "%m") return Relation::kMemberMeronym;
  if (symbol == "%p") return Relation::kPartMeronym;
  if (symbol == "%s") return Relation::kSubstanceMeronym;
  if (symbol == "!") return Relation::kAntonym;
  if (symbol == "=") return Relation::kAttribute;
  if (symbol == "+") return Relation::kDerivation;
  if (symbol == "&") return Relation::kSimilarTo;
  if (symbol == "^") return Relation::kAlsoSee;
  return Status::Corruption("unknown pointer symbol: " +
                            std::string(symbol));
}

Relation InverseRelation(Relation relation) {
  switch (relation) {
    case Relation::kHypernym:
      return Relation::kHyponym;
    case Relation::kHyponym:
      return Relation::kHypernym;
    case Relation::kInstanceHypernym:
      return Relation::kInstanceHyponym;
    case Relation::kInstanceHyponym:
      return Relation::kInstanceHypernym;
    case Relation::kMemberHolonym:
      return Relation::kMemberMeronym;
    case Relation::kMemberMeronym:
      return Relation::kMemberHolonym;
    case Relation::kPartHolonym:
      return Relation::kPartMeronym;
    case Relation::kPartMeronym:
      return Relation::kPartHolonym;
    case Relation::kSubstanceHolonym:
      return Relation::kSubstanceMeronym;
    case Relation::kSubstanceMeronym:
      return Relation::kSubstanceHolonym;
    case Relation::kAntonym:
    case Relation::kAttribute:
    case Relation::kDerivation:
    case Relation::kSimilarTo:
    case Relation::kAlsoSee:
      return relation;  // symmetric
  }
  return relation;
}

std::string SemanticNetwork::NormalizeLemma(std::string_view lemma) {
  std::string out;
  NormalizeLemmaInto(lemma, &out);
  return out;
}

void SemanticNetwork::NormalizeLemmaInto(std::string_view lemma,
                                         std::string* out) {
  out->assign(lemma);
  for (char& c : *out) {
    if (c == ' ' || c == '-') {
      c = '_';
    } else {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
}

std::vector<ConceptId>* SemanticNetwork::FindSenses(
    std::string_view normalized) {
  uint32_t token = interner_.Find(normalized);
  if (token == TokenInterner::kNotFound ||
      token >= senses_by_token_.size() ||
      senses_by_token_[token].empty()) {
    return nullptr;
  }
  return &senses_by_token_[token];
}

ConceptId SemanticNetwork::AddConcept(PartOfSpeech pos,
                                      std::vector<std::string> synonyms,
                                      std::string gloss, int lex_file) {
  assert(!synonyms.empty());
  Concept node;
  node.id = static_cast<ConceptId>(concepts_.size());
  node.pos = pos;
  node.gloss = std::move(gloss);
  node.lex_file = lex_file;
  for (std::string& lemma : synonyms) {
    lemma = NormalizeLemma(lemma);
    uint32_t token = interner_.Intern(lemma);
    if (token >= senses_by_token_.size()) {
      senses_by_token_.resize(static_cast<size_t>(token) + 1);
    }
    std::vector<ConceptId>& senses = senses_by_token_[token];
    if (senses.empty()) ++lemma_count_;
    senses.push_back(node.id);
  }
  node.synonyms = std::move(synonyms);
  concepts_.push_back(std::move(node));
  finalized_ = false;
  return concepts_.back().id;
}

void SemanticNetwork::AddEdge(ConceptId source, Relation relation,
                              ConceptId target, bool add_inverse) {
  assert(source >= 0 && static_cast<size_t>(source) < concepts_.size());
  assert(target >= 0 && static_cast<size_t>(target) < concepts_.size());
  Edge edge{relation, target};
  auto& edges = concepts_[static_cast<size_t>(source)].edges;
  if (std::find(edges.begin(), edges.end(), edge) == edges.end()) {
    edges.push_back(edge);
  }
  if (add_inverse) {
    Edge inverse{InverseRelation(relation), source};
    auto& back_edges = concepts_[static_cast<size_t>(target)].edges;
    if (std::find(back_edges.begin(), back_edges.end(), inverse) ==
        back_edges.end()) {
      back_edges.push_back(inverse);
    }
  }
  finalized_ = false;
}

void SemanticNetwork::SetFrequency(ConceptId id, double frequency) {
  concepts_[static_cast<size_t>(id)].frequency = frequency;
  finalized_ = false;
}

const std::vector<ConceptId>& SemanticNetwork::Senses(
    std::string_view lemma) const {
  static const std::vector<ConceptId> kEmpty;
  // Normalize into a reused per-thread buffer: lemma lookup is the
  // innermost string operation of the disambiguation hot path and must
  // not allocate per query.
  thread_local std::string buffer;
  NormalizeLemmaInto(lemma, &buffer);
  uint32_t token = interner_.Find(buffer);
  if (token == TokenInterner::kNotFound ||
      token >= senses_by_token_.size()) {
    return kEmpty;
  }
  return senses_by_token_[token];
}

int SemanticNetwork::SenseCount(std::string_view lemma) const {
  return static_cast<int>(Senses(lemma).size());
}

bool SemanticNetwork::Contains(std::string_view lemma) const {
  return SenseCount(lemma) > 0;
}

int SemanticNetwork::MaxPolysemy() const {
  return finalized_ ? max_polysemy_ : ScanMaxPolysemy();
}

int SemanticNetwork::ScanMaxPolysemy() const {
  size_t max_senses = 0;
  for (const std::vector<ConceptId>& senses : senses_by_token_) {
    max_senses = std::max(max_senses, senses.size());
  }
  return static_cast<int>(max_senses);
}

Status SemanticNetwork::SetSenseOrder(std::string_view lemma,
                                      PartOfSpeech pos,
                                      const std::vector<ConceptId>& ordered) {
  std::vector<ConceptId>* found = FindSenses(NormalizeLemma(lemma));
  if (found == nullptr) {
    return Status::NotFound("unknown lemma: " + std::string(lemma));
  }
  std::vector<ConceptId>& senses = *found;
  std::vector<ConceptId> current_pos_senses;
  for (ConceptId id : senses) {
    if (GetConcept(id).pos == pos) current_pos_senses.push_back(id);
  }
  std::vector<ConceptId> sorted_a = current_pos_senses;
  std::vector<ConceptId> sorted_b = ordered;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  if (sorted_a != sorted_b) {
    return Status::InvalidArgument(
        "sense order is not a permutation of existing senses for lemma: " +
        std::string(lemma));
  }
  // Regroup: n, v, a, r blocks; the reordered pos uses `ordered`.
  std::vector<ConceptId> rebuilt;
  rebuilt.reserve(senses.size());
  for (PartOfSpeech p : {PartOfSpeech::kNoun, PartOfSpeech::kVerb,
                         PartOfSpeech::kAdjective, PartOfSpeech::kAdverb}) {
    if (p == pos) {
      rebuilt.insert(rebuilt.end(), ordered.begin(), ordered.end());
    } else {
      for (ConceptId id : senses) {
        if (GetConcept(id).pos == p) rebuilt.push_back(id);
      }
    }
  }
  senses = std::move(rebuilt);
  return Status::Ok();
}

std::vector<ConceptId> SemanticNetwork::Hypernyms(ConceptId id) const {
  std::vector<ConceptId> out;
  for (const Edge& edge : GetConcept(id).edges) {
    if (edge.relation == Relation::kHypernym ||
        edge.relation == Relation::kInstanceHypernym) {
      out.push_back(edge.target);
    }
  }
  return out;
}

std::vector<ConceptId> SemanticNetwork::Hyponyms(ConceptId id) const {
  std::vector<ConceptId> out;
  for (const Edge& edge : GetConcept(id).edges) {
    if (edge.relation == Relation::kHyponym ||
        edge.relation == Relation::kInstanceHyponym) {
      out.push_back(edge.target);
    }
  }
  return out;
}

int SemanticNetwork::Depth(ConceptId id) const {
  // Finalized networks read the precomputed depth table (owned or
  // snapshot-mapped); the lazy path below only runs mid-construction.
  if (finalized_ && !depths_v_.empty()) {
    return depths_v_[static_cast<size_t>(id)];
  }
  if (depth_cache_.size() != concepts_.size()) {
    depth_cache_.assign(concepts_.size(), -1);
  }
  int32_t& cached = depth_cache_[static_cast<size_t>(id)];
  if (cached >= 0) return cached;
  // Iterative BFS upward: depth = shortest hypernym chain to any root.
  // Memoization is per-node; cycles (which a well-formed taxonomy lacks)
  // are guarded by the visited set.
  std::deque<std::pair<ConceptId, int>> queue = {{id, 0}};
  std::vector<bool> visited(concepts_.size(), false);
  visited[static_cast<size_t>(id)] = true;
  while (!queue.empty()) {
    auto [cur, dist] = queue.front();
    queue.pop_front();
    std::vector<ConceptId> ups = Hypernyms(cur);
    if (ups.empty()) {
      cached = dist;
      return cached;
    }
    for (ConceptId up : ups) {
      if (!visited[static_cast<size_t>(up)]) {
        visited[static_cast<size_t>(up)] = true;
        queue.emplace_back(up, dist + 1);
      }
    }
  }
  cached = 0;
  return cached;
}

int SemanticNetwork::MaxDepth() const {
  int max_depth = 0;
  for (const Concept& c : concepts_) {
    max_depth = std::max(max_depth, Depth(c.id));
  }
  return max_depth;
}

std::unordered_map<ConceptId, int> SemanticNetwork::AncestorDistances(
    ConceptId id) const {
  std::unordered_map<ConceptId, int> distances;
  std::deque<ConceptId> queue = {id};
  distances[id] = 0;
  while (!queue.empty()) {
    ConceptId cur = queue.front();
    queue.pop_front();
    int next_dist = distances[cur] + 1;
    for (ConceptId up : Hypernyms(cur)) {
      auto [it, inserted] = distances.emplace(up, next_dist);
      if (inserted) queue.push_back(up);
    }
  }
  return distances;
}

std::vector<std::vector<ConceptId>> SemanticNetwork::Rings(
    ConceptId center, int max_distance) const {
  std::vector<std::vector<ConceptId>> rings;
  rings.push_back({center});
  // Reused per-thread visited set: concept spheres are rebuilt for
  // every candidate of every node, and a fresh N-bit allocation per
  // call dominated the context-based process. Epoch stamping makes
  // clearing O(1).
  thread_local std::vector<uint32_t> stamps;
  thread_local uint32_t epoch = 0;
  if (stamps.size() < concepts_.size()) stamps.resize(concepts_.size(), 0);
  if (++epoch == 0) {  // wrapped: every stale stamp could collide
    std::fill(stamps.begin(), stamps.end(), 0u);
    epoch = 1;
  }
  auto visit = [&](ConceptId id) {
    uint32_t& stamp = stamps[static_cast<size_t>(id)];
    if (stamp == epoch) return false;
    stamp = epoch;
    return true;
  };
  visit(center);
  std::vector<ConceptId> frontier = {center};
  for (int d = 1; d <= max_distance && !frontier.empty(); ++d) {
    std::vector<ConceptId> next;
    for (ConceptId id : frontier) {
      for (const Edge& edge : GetConcept(id).edges) {
        if (visit(edge.target)) next.push_back(edge.target);
      }
    }
    std::sort(next.begin(), next.end());
    rings.push_back(next);
    frontier = rings.back();
  }
  while (static_cast<int>(rings.size()) <= max_distance) {
    rings.emplace_back();
  }
  return rings;
}

void SemanticNetwork::FinalizeFrequencies() {
  // Rebuilding the owned tables below may reallocate the vectors the
  // views point at; detach the views (and any snapshot backing) first
  // so every accessor in this function runs the slow, correct path.
  finalized_ = false;
  ancestor_offsets_v_ = {};
  ancestor_entries_v_ = {};
  gloss_offsets_v_ = {};
  gloss_tokens_v_ = {};
  gloss_bag_offsets_v_ = {};
  gloss_bag_tokens_v_ = {};
  information_content_v_ = {};
  cumulative_frequency_v_ = {};
  depths_v_ = {};
  label_token_ids_v_ = {};
  snapshot_backing_.reset();

  // Smoothed base counts (add-one) so information content is defined
  // for unseen concepts, then propagate counts to all hypernym
  // ancestors as node-based measures require (Resnik / Lin).
  size_t n = concepts_.size();
  cumulative_frequency_.assign(n, 0.0);
  depth_cache_.assign(n, -1);

  // Each concept contributes its (add-one smoothed) base count to every
  // hypernym ancestor exactly once — correct under multiple inheritance
  // (diamonds are not double counted).
  for (const Concept& c : concepts_) {
    double count = c.frequency + 1.0;
    for (const auto& [ancestor, dist] : AncestorDistances(c.id)) {
      (void)dist;
      cumulative_frequency_[static_cast<size_t>(ancestor)] += count;
    }
  }
  total_frequency_ = 0.0;
  for (const Concept& c : concepts_) {
    if (Hypernyms(c.id).empty()) {
      total_frequency_ += cumulative_frequency_[static_cast<size_t>(c.id)];
    }
  }
  if (total_frequency_ <= 0.0) total_frequency_ = 1.0;

  // Per-concept label ids: concept spheres built by the id-based
  // context pipeline carry interner ids instead of label strings.
  label_token_ids_.assign(n, TokenInterner::kNotFound);
  for (const Concept& c : concepts_) {
    label_token_ids_[static_cast<size_t>(c.id)] = interner_.Find(c.label());
  }

  // Precompute every taxonomic depth eagerly. Depth() memoizes lazily
  // into a mutable cache, which is fine single-threaded but a data race
  // when a finalized network is shared read-only across worker threads
  // (the runtime engine's contract); filling the cache here makes every
  // const member a pure read afterwards.
  for (const Concept& c : concepts_) Depth(c.id);

  // ---- Kernel tables -----------------------------------------------
  // Ancestor arrays: the per-pair LCS searches of the taxonomy
  // measures become a merge of two id-sorted arrays.
  ancestor_offsets_.assign(n + 1, 0);
  ancestor_entries_.clear();
  for (const Concept& c : concepts_) {
    size_t begin = ancestor_entries_.size();
    for (const auto& [ancestor, dist] : AncestorDistances(c.id)) {
      ancestor_entries_.push_back(
          {ancestor, static_cast<int32_t>(dist)});
    }
    std::sort(ancestor_entries_.begin() + static_cast<long>(begin),
              ancestor_entries_.end(),
              [](const AncestorEntry& x, const AncestorEntry& y) {
                return x.id < y.id;
              });
    ancestor_offsets_[static_cast<size_t>(c.id) + 1] =
        ancestor_entries_.size();
  }

  // Information content, with exactly the per-pair expression the
  // node-based measures used to evaluate inline (bit-identical reads).
  information_content_.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double p = cumulative_frequency_[i] / total_frequency_;
    information_content_[i] =
        (p <= 0.0 || p >= 1.0) ? 0.0 : -std::log(p);
  }
  max_information_content_ = -std::log(1.0 / total_frequency_);

  // Extended-gloss token bags: build each concept's combined gloss
  // string (own gloss plus the glosses of taxonomic/meronymic
  // neighbors), run it through the tokenize -> stop-word -> stem
  // pipeline once, and intern the result — per-pair gloss scoring
  // never touches a string again.
  gloss_offsets_.assign(n + 1, 0);
  gloss_tokens_.clear();
  gloss_bag_offsets_.assign(n + 1, 0);
  gloss_bag_tokens_.clear();
  std::string combined;
  std::vector<uint32_t> bag;
  for (const Concept& c : concepts_) {
    combined = c.gloss;
    for (const Edge& edge : c.edges) {
      switch (edge.relation) {
        case Relation::kHypernym:
        case Relation::kInstanceHypernym:
        case Relation::kHyponym:
        case Relation::kInstanceHyponym:
        case Relation::kMemberMeronym:
        case Relation::kPartMeronym:
        case Relation::kSubstanceMeronym:
        case Relation::kMemberHolonym:
        case Relation::kPartHolonym:
        case Relation::kSubstanceHolonym:
          combined += ' ';
          combined += GetConcept(edge.target).gloss;
          break;
        default:
          break;
      }
    }
    std::vector<std::string> tokens = text::Tokenize(combined);
    tokens = text::RemoveStopWords(tokens);
    bag.clear();
    for (std::string& token : tokens) {
      uint32_t id = interner_.Intern(text::PorterStem(token));
      gloss_tokens_.push_back(id);
      bag.push_back(id);
    }
    gloss_offsets_[static_cast<size_t>(c.id) + 1] = gloss_tokens_.size();
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    gloss_bag_tokens_.insert(gloss_bag_tokens_.end(), bag.begin(),
                             bag.end());
    gloss_bag_offsets_[static_cast<size_t>(c.id) + 1] =
        gloss_bag_tokens_.size();
  }

  max_polysemy_ = ScanMaxPolysemy();
  BindViewsToOwnedTables();
  finalized_ = true;
}

void SemanticNetwork::BindViewsToOwnedTables() {
  ancestor_offsets_v_ = ancestor_offsets_;
  ancestor_entries_v_ = ancestor_entries_;
  gloss_offsets_v_ = gloss_offsets_;
  gloss_tokens_v_ = gloss_tokens_;
  gloss_bag_offsets_v_ = gloss_bag_offsets_;
  gloss_bag_tokens_v_ = gloss_bag_tokens_;
  information_content_v_ = information_content_;
  cumulative_frequency_v_ = cumulative_frequency_;
  depths_v_ = depth_cache_;
  label_token_ids_v_ = label_token_ids_;
  snapshot_backing_.reset();
}

}  // namespace xsdf::wordnet
