#include "prop/generators.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "common/strings.h"

namespace xsdf::propgen {

namespace {

// ====================== XML generation ===============================

const char* const kNamePool[] = {
    "films",  "picture", "cast",   "star", "director", "title",
    "state",  "head",    "plant",  "menu", "price",    "club",
    "record", "play",    "genre",  "plot", "year",     "item",
};

std::string RandomName(Rng& rng) {
  std::string name = kNamePool[rng.UniformInt(std::size(kNamePool))];
  if (rng.Bernoulli(0.3)) {
    name += '-';
    name += static_cast<char>('a' + rng.UniformInt(26));
  }
  if (rng.Bernoulli(0.2)) {
    name += std::to_string(rng.UniformInt(100));
  }
  return name;
}

/// Raw characters safe in both text content and attribute values
/// without escaping.
constexpr std::string_view kTextChars =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " .,;:!?()-_/";

void AppendRandomText(Rng& rng, bool allow_entities, std::string* out) {
  int pieces = static_cast<int>(rng.UniformRange(1, 12));
  for (int i = 0; i < pieces; ++i) {
    if (allow_entities && rng.Bernoulli(0.2)) {
      switch (rng.UniformInt(7)) {
        case 0: *out += "&lt;"; break;
        case 1: *out += "&gt;"; break;
        case 2: *out += "&amp;"; break;
        case 3: *out += "&apos;"; break;
        case 4: *out += "&quot;"; break;
        case 5:
          *out += StrFormat("&#%d;", static_cast<int>(rng.UniformRange(
                                         33, 0x2FFF)));
          break;
        default:
          *out += StrFormat("&#x%x;", static_cast<int>(rng.UniformRange(
                                          0x21, 0x10FFF)));
          break;
      }
    } else {
      *out += kTextChars[rng.UniformInt(kTextChars.size())];
    }
  }
}

void AppendRandomElement(Rng& rng, const XmlGenOptions& options, int depth,
                         std::string* out) {
  std::string name = RandomName(rng);
  *out += '<';
  *out += name;
  int attrs = static_cast<int>(rng.UniformInt(
      static_cast<uint64_t>(options.max_attributes) + 1));
  for (int a = 0; a < attrs; ++a) {
    // Index suffix keeps attribute names unique within the element.
    *out += StrFormat(" %s%d=", RandomName(rng).c_str(), a);
    char quote = rng.Bernoulli(0.5) ? '"' : '\'';
    *out += quote;
    std::string value;
    AppendRandomText(rng, options.allow_entities, &value);
    // The unescaped quote character itself may not appear in the value.
    std::replace(value.begin(), value.end(), quote, '.');
    *out += value;
    *out += quote;
  }
  bool self_close = depth >= options.max_depth || rng.Bernoulli(0.2);
  if (self_close) {
    *out += rng.Bernoulli(0.5) ? "/>" : ">";
    if (out->back() == '>' && (*out)[out->size() - 2] != '/') {
      *out += "</" + name + ">";
    }
    return;
  }
  *out += '>';
  int children = static_cast<int>(rng.UniformInt(
      static_cast<uint64_t>(options.max_children) + 1));
  for (int c = 0; c < children; ++c) {
    switch (rng.UniformInt(6)) {
      case 0:
      case 1:
        AppendRandomElement(rng, options, depth + 1, out);
        break;
      case 2:
      case 3:
        AppendRandomText(rng, options.allow_entities, out);
        break;
      case 4:
        if (options.allow_cdata) {
          *out += "<![CDATA[";
          std::string cdata;
          AppendRandomText(rng, /*allow_entities=*/false, &cdata);
          *out += cdata;  // kTextChars can never form "]]>"
          *out += "]]>";
        }
        break;
      default:
        if (options.allow_misc) {
          if (rng.Bernoulli(0.5)) {
            std::string comment;
            AppendRandomText(rng, /*allow_entities=*/false, &comment);
            std::replace(comment.begin(), comment.end(), '-', '.');
            *out += "<!--" + comment + "-->";
          } else {
            *out += "<?pi-" + std::to_string(rng.UniformInt(10)) + " data?>";
          }
        }
        break;
    }
  }
  *out += "</" + name + ">";
}

}  // namespace

std::string GenerateXmlDocument(Rng& rng, const XmlGenOptions& options) {
  std::string out;
  if (rng.Bernoulli(0.7)) {
    out += "<?xml version=\"1.0\"";
    if (rng.Bernoulli(0.5)) out += " encoding=\"UTF-8\"";
    out += "?>";
  }
  if (options.allow_misc && rng.Bernoulli(0.3)) {
    out += "<!-- prolog comment -->";
  }
  if (options.allow_misc && rng.Bernoulli(0.2)) {
    out += "<!DOCTYPE root [ <!ELEMENT a (b)> ]>";
  }
  AppendRandomElement(rng, options, /*depth=*/0, &out);
  if (options.allow_misc && rng.Bernoulli(0.2)) {
    out += "<!-- trailing -->";
  }
  return out;
}

xml::ParseOptions TightXmlOptions() {
  xml::ParseOptions options;
  options.discard_whitespace_text = false;
  options.limits.max_input_bytes = 1u << 16;
  options.limits.max_depth = 32;
  options.limits.max_attributes_per_element = 16;
  options.limits.max_entity_references = 256;
  return options;
}

// ====================== Mini-lexicon generation ======================

namespace {

std::string RandomLemma(Rng& rng) {
  int len = static_cast<int>(rng.UniformRange(3, 8));
  std::string lemma;
  for (int i = 0; i < len; ++i) {
    lemma += static_cast<char>('a' + rng.UniformInt(26));
  }
  if (rng.Bernoulli(0.15)) {
    lemma += '_';
    for (int i = 0; i < 4; ++i) {
      lemma += static_cast<char>('a' + rng.UniformInt(26));
    }
  }
  return lemma;
}

const char* const kGlossWords[] = {
    "a", "sovereign", "body", "of", "people", "moving", "image", "shown",
    "in", "theatre", "celestial", "device", "organism", "performer",
    "politically", "organized", "unit", "the", "way", "something", "is",
};

std::string RandomGloss(Rng& rng) {
  int words = static_cast<int>(rng.UniformRange(2, 9));
  std::vector<std::string> parts;
  for (int i = 0; i < words; ++i) {
    parts.push_back(kGlossWords[rng.UniformInt(std::size(kGlossWords))]);
  }
  return StrJoin(parts, " ");
}

}  // namespace

wordnet::SemanticNetwork GenerateMiniLexicon(
    Rng& rng, const LexiconGenOptions& options) {
  using wordnet::ConceptId;
  using wordnet::PartOfSpeech;
  using wordnet::Relation;
  wordnet::SemanticNetwork network;
  int total = static_cast<int>(
      rng.UniformRange(options.min_concepts, options.max_concepts));

  std::vector<std::string> lemma_pool;
  std::vector<ConceptId> all_ids;
  // Pos-grouped creation; see the header comment for why this is what
  // makes the write -> parse -> write loop byte-identical.
  const PartOfSpeech kOrder[] = {PartOfSpeech::kNoun, PartOfSpeech::kVerb,
                                 PartOfSpeech::kAdjective,
                                 PartOfSpeech::kAdverb};
  const double kShare[] = {0.55, 0.2, 0.15, 0.1};
  for (size_t p = 0; p < std::size(kOrder); ++p) {
    int count = std::max(p == 0 ? 1 : 0,
                         static_cast<int>(total * kShare[p] + 0.5));
    std::vector<ConceptId> pos_ids;
    for (int i = 0; i < count; ++i) {
      int synonym_count = static_cast<int>(rng.UniformRange(1, 3));
      std::vector<std::string> synonyms;
      for (int s = 0; s < synonym_count; ++s) {
        std::string lemma;
        if (!lemma_pool.empty() && rng.Bernoulli(options.polysemy_rate)) {
          lemma = lemma_pool[rng.UniformInt(lemma_pool.size())];
        } else {
          lemma = RandomLemma(rng);
          lemma_pool.push_back(lemma);
        }
        if (std::find(synonyms.begin(), synonyms.end(), lemma) ==
            synonyms.end()) {
          synonyms.push_back(std::move(lemma));
        }
      }
      ConceptId id = network.AddConcept(
          kOrder[p], std::move(synonyms), RandomGloss(rng),
          static_cast<int>(rng.UniformRange(0, 44)));
      // Hypernym edges point at earlier same-pos concepts only, so the
      // taxonomy is acyclic by construction.
      if (!pos_ids.empty() && rng.Bernoulli(0.8) &&
          (kOrder[p] == PartOfSpeech::kNoun ||
           kOrder[p] == PartOfSpeech::kVerb)) {
        network.AddEdge(id, Relation::kHypernym,
                        pos_ids[rng.UniformInt(pos_ids.size())]);
      }
      pos_ids.push_back(id);
      all_ids.push_back(id);
    }
  }
  // A sprinkle of non-taxonomic relations across the whole network.
  int extra_edges = static_cast<int>(rng.UniformInt(all_ids.size()));
  const Relation kExtra[] = {Relation::kAntonym, Relation::kSimilarTo,
                             Relation::kAlsoSee, Relation::kDerivation,
                             Relation::kPartHolonym};
  for (int i = 0; i < extra_edges; ++i) {
    ConceptId a = all_ids[rng.UniformInt(all_ids.size())];
    ConceptId b = all_ids[rng.UniformInt(all_ids.size())];
    if (a == b) continue;
    network.AddEdge(a, kExtra[rng.UniformInt(std::size(kExtra))], b);
  }
  for (ConceptId id : all_ids) {
    if (rng.Bernoulli(options.tagged_rate)) {
      network.SetFrequency(id,
                           static_cast<double>(rng.UniformRange(1, 80)));
    }
  }
  network.FinalizeFrequencies();
  return network;
}

// ====================== WNDB fuzz container ==========================

namespace {
constexpr std::string_view kFileHeader = "%%file ";
}

std::string PackWndbContainer(const wordnet::WndbFiles& files) {
  std::string blob;
  for (const auto& [name, contents] : files) {
    blob += kFileHeader;
    blob += name;
    blob += '\n';
    blob += contents;
    if (!contents.empty() && contents.back() != '\n') blob += '\n';
  }
  return blob;
}

wordnet::WndbFiles UnpackWndbContainer(std::string_view blob) {
  wordnet::WndbFiles files;
  std::string current_name;
  std::string current_contents;
  size_t pos = 0;
  while (pos < blob.size()) {
    size_t eol = blob.find('\n', pos);
    std::string_view line = blob.substr(
        pos, eol == std::string_view::npos ? blob.size() - pos : eol - pos);
    if (line.substr(0, kFileHeader.size()) == kFileHeader) {
      if (!current_name.empty()) {
        files[current_name] = std::move(current_contents);
      }
      current_name = std::string(line.substr(kFileHeader.size(), 64));
      current_contents.clear();
    } else if (!current_name.empty()) {
      current_contents += line;
      current_contents += '\n';
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  if (!current_name.empty()) {
    files[current_name] = std::move(current_contents);
  }
  return files;
}

// ====================== Mutators =====================================

std::string MutateBytes(Rng& rng, std::string_view input, int edits) {
  // Bias mutations toward the bytes that matter to both grammars.
  static constexpr std::string_view kInteresting =
      "<>&;\"'%|@~#!=+^ \n0123456789abcdefn";
  std::string out(input);
  for (int e = 0; e < edits; ++e) {
    char c = rng.Bernoulli(0.7)
                 ? kInteresting[rng.UniformInt(kInteresting.size())]
                 : static_cast<char>(rng.UniformInt(256));
    switch (rng.UniformInt(4)) {
      case 0:  // overwrite
        if (!out.empty()) out[rng.UniformInt(out.size())] = c;
        break;
      case 1:  // insert
        out.insert(out.begin() +
                       static_cast<long>(rng.UniformInt(out.size() + 1)),
                   c);
        break;
      case 2: {  // erase a short span
        if (out.empty()) break;
        size_t begin = rng.UniformInt(out.size());
        size_t len = 1 + rng.UniformInt(8);
        out.erase(begin, std::min(len, out.size() - begin));
        break;
      }
      default: {  // duplicate a chunk elsewhere
        if (out.empty()) break;
        size_t begin = rng.UniformInt(out.size());
        size_t len = 1 + rng.UniformInt(16);
        std::string chunk = out.substr(begin, len);
        out.insert(rng.UniformInt(out.size() + 1), chunk);
        break;
      }
    }
  }
  return out;
}

namespace {

const char* const kPointerSymbols[] = {"@",  "@i", "~",  "~i", "#m", "#p",
                                       "#s", "%m", "%p", "%s", "!",  "=",
                                       "+",  "&",  "^",  "??"};

/// One field-level rewrite of a whitespace-separated record line.
std::string MutateRecordLine(Rng& rng, std::string_view line) {
  // Keep the gloss intact: field mutations target the record grammar.
  size_t bar = line.find(" | ");
  std::string_view fields_part =
      bar == std::string_view::npos ? line : line.substr(0, bar);
  std::string_view gloss_part =
      bar == std::string_view::npos ? std::string_view() : line.substr(bar);

  std::vector<std::string> fields;
  size_t pos = 0;
  while (pos < fields_part.size()) {
    while (pos < fields_part.size() && fields_part[pos] == ' ') ++pos;
    size_t begin = pos;
    while (pos < fields_part.size() && fields_part[pos] != ' ') ++pos;
    if (pos > begin) {
      fields.emplace_back(fields_part.substr(begin, pos - begin));
    }
  }
  if (fields.empty()) return std::string(line);

  size_t target = rng.UniformInt(fields.size());
  switch (rng.UniformInt(6)) {
    case 0: {  // numeric nudge / extreme
      long value = std::strtol(fields[target].c_str(), nullptr, 16);
      switch (rng.UniformInt(4)) {
        case 0: value += 1; break;
        case 1: value = -value; break;
        case 2: value = 0; break;
        default: value = 99999999L * (rng.Bernoulli(0.5) ? 1 : -1); break;
      }
      fields[target] = std::to_string(value);
      break;
    }
    case 1:  // pointer-symbol swap (or garbage symbol)
      fields[target] =
          kPointerSymbols[rng.UniformInt(std::size(kPointerSymbols))];
      break;
    case 2:  // drop the field
      fields.erase(fields.begin() + static_cast<long>(target));
      break;
    case 3:  // duplicate the field
      fields.insert(fields.begin() + static_cast<long>(target),
                    fields[target]);
      break;
    case 4:  // truncate the record at the field
      fields.resize(target);
      break;
    default:  // scramble a couple of bytes inside the field
      fields[target] = MutateBytes(rng, fields[target], 2);
      break;
  }
  std::string rebuilt = StrJoin(fields, " ");
  rebuilt += gloss_part;
  return rebuilt;
}

}  // namespace

std::string MutateWndbContainer(Rng& rng, std::string_view blob) {
  // Collect candidate record lines: non-header, non-license content.
  struct Line {
    size_t begin;
    size_t end;
  };
  std::vector<Line> records;
  size_t pos = 0;
  while (pos < blob.size()) {
    size_t eol = blob.find('\n', pos);
    size_t end = eol == std::string_view::npos ? blob.size() : eol;
    std::string_view line = blob.substr(pos, end - pos);
    if (!line.empty() && line[0] != ' ' &&
        line.substr(0, kFileHeader.size()) != kFileHeader) {
      records.push_back({pos, end});
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  if (records.empty()) return MutateBytes(rng, blob, 4);

  Line chosen = records[rng.UniformInt(records.size())];
  std::string mutated = MutateRecordLine(
      rng, blob.substr(chosen.begin, chosen.end - chosen.begin));
  std::string out(blob.substr(0, chosen.begin));
  out += mutated;
  out += blob.substr(chosen.end);
  // Occasionally stack a second structured edit for deeper damage.
  if (rng.Bernoulli(0.25)) return MutateWndbContainer(rng, out);
  return out;
}

}  // namespace xsdf::propgen
