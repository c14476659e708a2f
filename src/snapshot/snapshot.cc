#include "snapshot/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/token_interner.h"
#include "snapshot/format.h"
#include "snapshot/mapped_file.h"

namespace xsdf::snapshot {

using wordnet::AncestorEntry;
using wordnet::Concept;
using wordnet::ConceptId;
using wordnet::PartOfSpeech;
using wordnet::Relation;
using wordnet::SemanticNetwork;

namespace {

/// Typed edge record as serialized (Relation's underlying value is an
/// implementation detail; the file pins it to i32).
struct EdgeRecord {
  int32_t relation = 0;
  int32_t target = 0;
};
static_assert(sizeof(EdgeRecord) == 8);
static_assert(sizeof(AncestorEntry) == 8);

/// Highest valid Relation value (kAlsoSee); new relations bump the
/// snapshot version.
constexpr int32_t kMaxRelation = static_cast<int32_t>(Relation::kAlsoSee);

/// One section staged for writing: id + payload bytes.
struct StagedSection {
  SectionId id;
  std::string bytes;
};

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void AppendArray(std::string* out, std::span<const T> values) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(T));
}

}  // namespace

/// The one component with friend access to SemanticNetwork's private
/// tables: reads them for the writer, installs them for the loader.
class NetworkCodec {
 public:
  // ---- writer-side views -------------------------------------------
  static const TokenInterner& interner(const SemanticNetwork& n) {
    return n.interner_;
  }
  static const std::vector<std::vector<ConceptId>>& senses_by_token(
      const SemanticNetwork& n) {
    return n.senses_by_token_;
  }
  static std::span<const uint64_t> ancestor_offsets(
      const SemanticNetwork& n) {
    return n.ancestor_offsets_v_;
  }
  static std::span<const AncestorEntry> ancestor_entries(
      const SemanticNetwork& n) {
    return n.ancestor_entries_v_;
  }
  static std::span<const uint64_t> gloss_offsets(const SemanticNetwork& n) {
    return n.gloss_offsets_v_;
  }
  static std::span<const uint32_t> gloss_tokens(const SemanticNetwork& n) {
    return n.gloss_tokens_v_;
  }
  static std::span<const uint64_t> bag_offsets(const SemanticNetwork& n) {
    return n.gloss_bag_offsets_v_;
  }
  static std::span<const uint32_t> bag_tokens(const SemanticNetwork& n) {
    return n.gloss_bag_tokens_v_;
  }
  static std::span<const double> information_content(
      const SemanticNetwork& n) {
    return n.information_content_v_;
  }
  static std::span<const double> cumulative_frequency(
      const SemanticNetwork& n) {
    return n.cumulative_frequency_v_;
  }
  static std::span<const int32_t> depths(const SemanticNetwork& n) {
    return n.depths_v_;
  }
  static std::span<const uint32_t> label_token_ids(
      const SemanticNetwork& n) {
    return n.label_token_ids_v_;
  }

  // ---- loader side -------------------------------------------------
  struct MappedTables {
    std::span<const uint64_t> ancestor_offsets;
    std::span<const AncestorEntry> ancestor_entries;
    std::span<const uint64_t> gloss_offsets;
    std::span<const uint32_t> gloss_tokens;
    std::span<const uint64_t> bag_offsets;
    std::span<const uint32_t> bag_tokens;
    std::span<const double> information_content;
    std::span<const double> cumulative_frequency;
    std::span<const int32_t> depths;
    std::span<const uint32_t> label_token_ids;
  };

  /// Installs everything into a fresh network. All inputs are already
  /// validated; this only moves data into place.
  static void Restore(SemanticNetwork* n, std::vector<Concept> concepts,
                      TokenInterner interner,
                      std::vector<std::vector<ConceptId>> senses_by_token,
                      size_t lemma_count, double total_frequency,
                      double max_information_content,
                      const MappedTables& tables,
                      std::shared_ptr<const void> backing) {
    n->concepts_ = std::move(concepts);
    n->interner_ = std::move(interner);
    n->senses_by_token_ = std::move(senses_by_token);
    n->lemma_count_ = lemma_count;
    n->total_frequency_ = total_frequency;
    n->max_information_content_ = max_information_content;
    n->ancestor_offsets_v_ = tables.ancestor_offsets;
    n->ancestor_entries_v_ = tables.ancestor_entries;
    n->gloss_offsets_v_ = tables.gloss_offsets;
    n->gloss_tokens_v_ = tables.gloss_tokens;
    n->gloss_bag_offsets_v_ = tables.bag_offsets;
    n->gloss_bag_tokens_v_ = tables.bag_tokens;
    n->information_content_v_ = tables.information_content;
    n->cumulative_frequency_v_ = tables.cumulative_frequency;
    n->depths_v_ = tables.depths;
    n->label_token_ids_v_ = tables.label_token_ids;
    n->snapshot_backing_ = std::move(backing);
    n->max_polysemy_ = n->ScanMaxPolysemy();
    n->finalized_ = true;
  }
};

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

Result<std::string> WriteNetworkSnapshot(const SemanticNetwork& network) {
  if (!network.finalized()) {
    return Status::FailedPrecondition(
        "snapshot requires a finalized network "
        "(call FinalizeFrequencies() first)");
  }
  const size_t n = network.size();
  const TokenInterner& interner = NetworkCodec::interner(network);
  const auto& senses_by_token = NetworkCodec::senses_by_token(network);

  MetaSection meta;
  meta.concept_count = n;
  meta.token_count = interner.size();
  meta.sense_token_count = senses_by_token.size();
  meta.lemma_count = network.LemmaCount();
  meta.total_frequency = network.TotalFrequency();
  meta.max_information_content = network.MaxInformationContent();
  meta.ancestor_entry_count = NetworkCodec::ancestor_entries(network).size();
  meta.gloss_token_count = NetworkCodec::gloss_tokens(network).size();
  meta.bag_token_count = NetworkCodec::bag_tokens(network).size();

  std::vector<StagedSection> sections;
  // The concept-record block below holds several stage() pointers at
  // once; reserving up front keeps them stable (24 sections total).
  sections.reserve(32);
  auto stage = [&sections](SectionId id) -> std::string* {
    sections.push_back({id, {}});
    return &sections.back().bytes;
  };

  // Kernel tables: byte-copied from the live views, so a re-snapshot
  // of a mapped network round-trips exactly.
  AppendArray(stage(SectionId::kAncestorOffsets),
              NetworkCodec::ancestor_offsets(network));
  AppendArray(stage(SectionId::kAncestorEntries),
              NetworkCodec::ancestor_entries(network));
  AppendArray(stage(SectionId::kGlossOffsets),
              NetworkCodec::gloss_offsets(network));
  AppendArray(stage(SectionId::kGlossTokens),
              NetworkCodec::gloss_tokens(network));
  AppendArray(stage(SectionId::kBagOffsets),
              NetworkCodec::bag_offsets(network));
  AppendArray(stage(SectionId::kBagTokens),
              NetworkCodec::bag_tokens(network));
  AppendArray(stage(SectionId::kInformationContent),
              NetworkCodec::information_content(network));
  AppendArray(stage(SectionId::kCumulativeFrequency),
              NetworkCodec::cumulative_frequency(network));
  AppendArray(stage(SectionId::kDepths), NetworkCodec::depths(network));
  AppendArray(stage(SectionId::kLabelTokenIds),
              NetworkCodec::label_token_ids(network));

  // Concept records.
  {
    std::string* pos = stage(SectionId::kConceptPos);
    std::string* lex = stage(SectionId::kConceptLexFile);
    std::string* freq = stage(SectionId::kConceptFrequency);
    std::string* syn_off = stage(SectionId::kSynonymOffsets);
    std::string* syn_tok = stage(SectionId::kSynonymTokens);
    std::string* edge_off = stage(SectionId::kEdgeOffsets);
    std::string* edges = stage(SectionId::kEdges);
    std::string* gloss_off = stage(SectionId::kGlossStrOffsets);
    std::string* gloss_bytes = stage(SectionId::kGlossStrBytes);
    uint64_t syn_count = 0;
    uint64_t edge_count = 0;
    uint64_t gloss_count = 0;
    AppendPod(syn_off, syn_count);
    AppendPod(edge_off, edge_count);
    AppendPod(gloss_off, gloss_count);
    for (const Concept& c : network.concepts()) {
      AppendPod(pos, static_cast<uint8_t>(c.pos));
      AppendPod(lex, static_cast<int32_t>(c.lex_file));
      AppendPod(freq, c.frequency);
      for (const std::string& synonym : c.synonyms) {
        uint32_t token = interner.Find(synonym);
        if (token == TokenInterner::kNotFound) {
          return Status::Internal("synonym not interned: " + synonym);
        }
        AppendPod(syn_tok, token);
        ++syn_count;
      }
      AppendPod(syn_off, syn_count);
      for (const wordnet::Edge& edge : c.edges) {
        EdgeRecord record{static_cast<int32_t>(edge.relation), edge.target};
        AppendPod(edges, record);
        ++edge_count;
      }
      AppendPod(edge_off, edge_count);
      gloss_bytes->append(c.gloss);
      gloss_count += c.gloss.size();
      AppendPod(gloss_off, gloss_count);
    }
    meta.synonym_token_count = syn_count;
    meta.edge_count = edge_count;
    meta.gloss_byte_count = gloss_count;
  }

  // Lemma sense index.
  {
    std::string* off = stage(SectionId::kSenseOffsets);
    std::string* ids = stage(SectionId::kSenseConcepts);
    uint64_t count = 0;
    AppendPod(off, count);
    for (const std::vector<ConceptId>& row : senses_by_token) {
      for (ConceptId id : row) AppendPod(ids, static_cast<int32_t>(id));
      count += row.size();
      AppendPod(off, count);
    }
    meta.sense_concept_count = count;
  }

  // Interner string pool, in id order.
  {
    std::string* off = stage(SectionId::kInternerOffsets);
    std::string* bytes = stage(SectionId::kInternerBytes);
    uint64_t count = 0;
    AppendPod(off, count);
    for (uint32_t id = 0; id < interner.size(); ++id) {
      const std::string& spelling = interner.Spelling(id);
      bytes->append(spelling);
      count += spelling.size();
      AppendPod(off, count);
    }
    meta.interner_byte_count = count;
  }

  {
    std::string* meta_bytes = stage(SectionId::kMeta);
    AppendPod(meta_bytes, meta);
  }

  // Assemble: header, section table, aligned payloads.
  size_t table_bytes = sections.size() * sizeof(SectionEntry);
  size_t offset = sizeof(SnapshotHeader) + table_bytes;
  std::vector<SectionEntry> table;
  table.reserve(sections.size());
  for (const StagedSection& section : sections) {
    offset = AlignUp(offset, kSectionAlignment);
    table.push_back({static_cast<uint32_t>(section.id), 0,
                     static_cast<uint64_t>(offset),
                     static_cast<uint64_t>(section.bytes.size())});
    offset += section.bytes.size();
  }
  const size_t total = AlignUp(offset, kSectionAlignment);

  std::string out(total, '\0');
  SnapshotHeader header;
  header.file_size = total;
  header.section_count = static_cast<uint32_t>(sections.size());
  std::memcpy(out.data() + sizeof(SnapshotHeader), table.data(),
              table_bytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    std::memcpy(out.data() + table[i].offset, sections[i].bytes.data(),
                sections[i].bytes.size());
  }
  header.payload_checksum = Fnv1a64(
      reinterpret_cast<const uint8_t*>(out.data()) + sizeof(SnapshotHeader),
      total - sizeof(SnapshotHeader));
  std::memcpy(out.data(), &header, sizeof(header));
  return out;
}

Status WriteNetworkSnapshotFile(const SemanticNetwork& network,
                                const std::string& path) {
  Result<std::string> bytes = WriteNetworkSnapshot(network);
  if (!bytes.ok()) return bytes.status();
  // Write-then-rename so a crashed writer never leaves a half snapshot
  // where a serving process could map it. The temp file is fsync'd
  // before the rename (and the directory after), otherwise a power
  // loss can publish an empty or partial file under the final name.
  std::string temp = path + ".tmp";
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IoError("cannot write " + temp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes->size()) {
    ssize_t n = ::write(fd, bytes->data() + written, bytes->size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(temp.c_str());
      return Status::IoError("short write to " + temp + ": " +
                             std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(temp.c_str());
    return Status::IoError("fsync " + temp + ": " + std::strerror(err));
  }
  if (::close(fd) != 0) {
    int err = errno;
    ::unlink(temp.c_str());
    return Status::IoError("close " + temp + ": " + std::strerror(err));
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    ::unlink(temp.c_str());
    return Status::IoError("cannot rename " + temp + " to " + path + ": " +
                           ec.message());
  }
  // Make the rename itself durable. Directory fsync failing is not
  // fatal to correctness of the bytes, so it is best-effort.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  std::string dir = parent.empty() ? "." : parent.string();
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------

namespace {

/// Bounds-checked, typed access into the raw snapshot bytes.
class SectionReader {
 public:
  SectionReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  Status Init() {
    if (reinterpret_cast<uintptr_t>(data_) % kSectionAlignment != 0) {
      return Status::InvalidArgument("snapshot buffer is not 8-byte aligned");
    }
    if (size_ < sizeof(SnapshotHeader)) {
      return Status::Corruption("snapshot shorter than its header");
    }
    std::memcpy(&header_, data_, sizeof(header_));
    if (header_.magic != kSnapshotMagic) {
      return Status::Corruption("bad snapshot magic");
    }
    if (header_.version != kSnapshotVersion) {
      return Status::Corruption(
          StrFormat("unsupported snapshot version %u (want %u)",
                    header_.version, kSnapshotVersion));
    }
    if (header_.endian_check != kEndianCheck) {
      return Status::Corruption("snapshot written with other byte order");
    }
    if (header_.file_size != size_) {
      return Status::Corruption(
          StrFormat("snapshot truncated: header says %llu bytes, have %zu",
                    static_cast<unsigned long long>(header_.file_size),
                    size_));
    }
    if (header_.section_count == 0 || header_.section_count > kMaxSections) {
      return Status::Corruption("implausible section count");
    }
    size_t table_bytes = header_.section_count * sizeof(SectionEntry);
    if (sizeof(SnapshotHeader) + table_bytes > size_) {
      return Status::Corruption("section table past end of file");
    }
    uint64_t checksum =
        Fnv1a64(data_ + sizeof(SnapshotHeader), size_ - sizeof(SnapshotHeader));
    if (checksum != header_.payload_checksum) {
      return Status::Corruption("snapshot checksum mismatch");
    }
    for (uint32_t i = 0; i < header_.section_count; ++i) {
      SectionEntry entry;
      std::memcpy(&entry, data_ + sizeof(SnapshotHeader) +
                              i * sizeof(SectionEntry),
                  sizeof(entry));
      if (entry.offset % kSectionAlignment != 0 || entry.offset > size_ ||
          entry.size > size_ - entry.offset) {
        return Status::Corruption(
            StrFormat("section %u out of bounds", entry.id));
      }
      // Later duplicates lose: ids are unique in well-formed files, and
      // first-wins makes the lookup deterministic either way.
      sections_.try_emplace(entry.id, entry);
    }
    return Status::Ok();
  }

  /// The section's bytes reinterpreted as a T array; Corruption when
  /// missing or when the byte size is not `count` T's exactly.
  template <typename T>
  Result<std::span<const T>> Array(SectionId id, uint64_t count) const {
    auto it = sections_.find(static_cast<uint32_t>(id));
    if (it == sections_.end()) {
      return Status::Corruption(
          StrFormat("missing snapshot section %u",
                    static_cast<uint32_t>(id)));
    }
    const SectionEntry& entry = it->second;
    // Divide before comparing: `count` comes straight from MetaSection,
    // so `count * sizeof(T)` can wrap mod 2^64 and collide with a small
    // section size. A count that cannot fit the section is corruption.
    if (count > entry.size / sizeof(T) || entry.size != count * sizeof(T)) {
      return Status::Corruption(
          StrFormat("section %u: %llu bytes, expected %llu elements",
                    static_cast<uint32_t>(id),
                    static_cast<unsigned long long>(entry.size),
                    static_cast<unsigned long long>(count)));
    }
    return std::span<const T>(
        reinterpret_cast<const T*>(data_ + entry.offset),
        static_cast<size_t>(count));
  }

 private:
  const uint8_t* data_;
  size_t size_;
  SnapshotHeader header_{};
  std::map<uint32_t, SectionEntry> sections_;
};

/// CSR offset arrays must start at 0, never decrease, and end at the
/// total entry count — the properties that make every subspan in the
/// accessors in-bounds.
Status ValidateCsr(std::span<const uint64_t> offsets, uint64_t total,
                   const char* what) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    return Status::Corruption(StrFormat("%s offsets malformed", what));
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::Corruption(
          StrFormat("%s offsets decrease at %zu", what, i));
    }
  }
  return Status::Ok();
}

Status ValidateTokenIds(std::span<const uint32_t> tokens, uint64_t limit,
                        const char* what) {
  for (uint32_t token : tokens) {
    if (token >= limit) {
      return Status::Corruption(StrFormat("%s token id out of range", what));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::shared_ptr<const SemanticNetwork>> LoadNetworkSnapshotFromBuffer(
    std::shared_ptr<const void> backing, const uint8_t* data, size_t size) {
  SectionReader reader(data, size);
  XSDF_RETURN_IF_ERROR(reader.Init());

  auto meta_bytes = reader.Array<MetaSection>(SectionId::kMeta, 1);
  if (!meta_bytes.ok()) return meta_bytes.status();
  MetaSection meta = (*meta_bytes)[0];

  const uint64_t n = meta.concept_count;
  if (n > 0x7FFFFFFFull) {
    return Status::Corruption("concept count exceeds ConceptId range");
  }
  if (meta.token_count >= TokenInterner::kNotFound) {
    return Status::Corruption("token count exceeds interner id range");
  }
  if (meta.sense_token_count > meta.token_count) {
    return Status::Corruption("sense index wider than the interner");
  }

  // ---- mapped kernel tables ----------------------------------------
  NetworkCodec::MappedTables tables;
  auto load = [&reader]<typename T>(SectionId id, uint64_t count,
                                    std::span<const T>* out) -> Status {
    Result<std::span<const T>> section = reader.Array<T>(id, count);
    if (!section.ok()) return section.status();
    *out = *section;
    return Status::Ok();
  };
  XSDF_RETURN_IF_ERROR(load.operator()<uint64_t>(
      SectionId::kAncestorOffsets, n + 1, &tables.ancestor_offsets));
  XSDF_RETURN_IF_ERROR(load.operator()<AncestorEntry>(
      SectionId::kAncestorEntries, meta.ancestor_entry_count,
      &tables.ancestor_entries));
  XSDF_RETURN_IF_ERROR(load.operator()<uint64_t>(
      SectionId::kGlossOffsets, n + 1, &tables.gloss_offsets));
  XSDF_RETURN_IF_ERROR(load.operator()<uint32_t>(
      SectionId::kGlossTokens, meta.gloss_token_count, &tables.gloss_tokens));
  XSDF_RETURN_IF_ERROR(load.operator()<uint64_t>(
      SectionId::kBagOffsets, n + 1, &tables.bag_offsets));
  XSDF_RETURN_IF_ERROR(load.operator()<uint32_t>(
      SectionId::kBagTokens, meta.bag_token_count, &tables.bag_tokens));
  XSDF_RETURN_IF_ERROR(load.operator()<double>(
      SectionId::kInformationContent, n, &tables.information_content));
  XSDF_RETURN_IF_ERROR(load.operator()<double>(
      SectionId::kCumulativeFrequency, n, &tables.cumulative_frequency));
  XSDF_RETURN_IF_ERROR(
      load.operator()<int32_t>(SectionId::kDepths, n, &tables.depths));
  XSDF_RETURN_IF_ERROR(load.operator()<uint32_t>(
      SectionId::kLabelTokenIds, n, &tables.label_token_ids));

  XSDF_RETURN_IF_ERROR(ValidateCsr(tables.ancestor_offsets,
                                   meta.ancestor_entry_count, "ancestor"));
  XSDF_RETURN_IF_ERROR(
      ValidateCsr(tables.gloss_offsets, meta.gloss_token_count, "gloss"));
  XSDF_RETURN_IF_ERROR(
      ValidateCsr(tables.bag_offsets, meta.bag_token_count, "gloss bag"));

  // Ancestor rows must be sorted by ancestor id (the merge kernels'
  // precondition) with ids inside the concept range.
  for (uint64_t c = 0; c < n; ++c) {
    uint64_t begin = tables.ancestor_offsets[c];
    uint64_t end = tables.ancestor_offsets[c + 1];
    int32_t previous = -1;
    for (uint64_t i = begin; i < end; ++i) {
      const AncestorEntry& entry = tables.ancestor_entries[i];
      if (entry.id < 0 || static_cast<uint64_t>(entry.id) >= n ||
          entry.distance < 0 || entry.id <= previous) {
        return Status::Corruption("ancestor table malformed");
      }
      previous = entry.id;
    }
  }
  // Gloss bags must be strictly increasing (sorted unique sets: the
  // zero-overlap intersection pass depends on it).
  for (uint64_t c = 0; c < n; ++c) {
    uint64_t begin = tables.bag_offsets[c];
    uint64_t end = tables.bag_offsets[c + 1];
    for (uint64_t i = begin + 1; i < end; ++i) {
      if (tables.bag_tokens[i] <= tables.bag_tokens[i - 1]) {
        return Status::Corruption("gloss bag not sorted unique");
      }
    }
  }
  XSDF_RETURN_IF_ERROR(
      ValidateTokenIds(tables.gloss_tokens, meta.token_count, "gloss"));
  XSDF_RETURN_IF_ERROR(
      ValidateTokenIds(tables.bag_tokens, meta.token_count, "gloss bag"));
  for (int32_t depth : tables.depths) {
    if (depth < 0) return Status::Corruption("negative depth");
  }
  for (uint32_t token : tables.label_token_ids) {
    if (token >= meta.token_count && token != TokenInterner::kNotFound) {
      return Status::Corruption("label token id out of range");
    }
  }

  // ---- materialized structures -------------------------------------
  auto intern_offsets =
      reader.Array<uint64_t>(SectionId::kInternerOffsets,
                             meta.token_count + 1);
  if (!intern_offsets.ok()) return intern_offsets.status();
  auto intern_bytes = reader.Array<char>(SectionId::kInternerBytes,
                                         meta.interner_byte_count);
  if (!intern_bytes.ok()) return intern_bytes.status();
  XSDF_RETURN_IF_ERROR(
      ValidateCsr(*intern_offsets, meta.interner_byte_count, "interner"));

  TokenInterner interner;
  for (uint64_t id = 0; id < meta.token_count; ++id) {
    std::string_view spelling(
        intern_bytes->data() + (*intern_offsets)[id],
        static_cast<size_t>((*intern_offsets)[id + 1] -
                            (*intern_offsets)[id]));
    if (interner.Intern(spelling) != id) {
      return Status::Corruption("interner pool has duplicate spellings");
    }
  }

  auto sense_offsets = reader.Array<uint64_t>(SectionId::kSenseOffsets,
                                              meta.sense_token_count + 1);
  if (!sense_offsets.ok()) return sense_offsets.status();
  auto sense_concepts = reader.Array<int32_t>(SectionId::kSenseConcepts,
                                              meta.sense_concept_count);
  if (!sense_concepts.ok()) return sense_concepts.status();
  XSDF_RETURN_IF_ERROR(
      ValidateCsr(*sense_offsets, meta.sense_concept_count, "sense"));

  std::vector<std::vector<ConceptId>> senses_by_token(
      static_cast<size_t>(meta.sense_token_count));
  size_t lemma_count = 0;
  for (uint64_t t = 0; t < meta.sense_token_count; ++t) {
    uint64_t begin = (*sense_offsets)[t];
    uint64_t end = (*sense_offsets)[t + 1];
    std::vector<ConceptId>& row = senses_by_token[static_cast<size_t>(t)];
    row.reserve(static_cast<size_t>(end - begin));
    for (uint64_t i = begin; i < end; ++i) {
      int32_t id = (*sense_concepts)[i];
      if (id < 0 || static_cast<uint64_t>(id) >= n) {
        return Status::Corruption("sense index references unknown concept");
      }
      row.push_back(id);
    }
    if (!row.empty()) ++lemma_count;
  }
  if (lemma_count != meta.lemma_count) {
    return Status::Corruption("lemma count mismatch");
  }

  auto pos = reader.Array<uint8_t>(SectionId::kConceptPos, n);
  if (!pos.ok()) return pos.status();
  auto lex_file = reader.Array<int32_t>(SectionId::kConceptLexFile, n);
  if (!lex_file.ok()) return lex_file.status();
  auto frequency = reader.Array<double>(SectionId::kConceptFrequency, n);
  if (!frequency.ok()) return frequency.status();
  auto syn_offsets =
      reader.Array<uint64_t>(SectionId::kSynonymOffsets, n + 1);
  if (!syn_offsets.ok()) return syn_offsets.status();
  auto syn_tokens = reader.Array<uint32_t>(SectionId::kSynonymTokens,
                                           meta.synonym_token_count);
  if (!syn_tokens.ok()) return syn_tokens.status();
  auto edge_offsets = reader.Array<uint64_t>(SectionId::kEdgeOffsets, n + 1);
  if (!edge_offsets.ok()) return edge_offsets.status();
  auto edges = reader.Array<EdgeRecord>(SectionId::kEdges, meta.edge_count);
  if (!edges.ok()) return edges.status();
  auto gloss_offsets =
      reader.Array<uint64_t>(SectionId::kGlossStrOffsets, n + 1);
  if (!gloss_offsets.ok()) return gloss_offsets.status();
  auto gloss_bytes =
      reader.Array<char>(SectionId::kGlossStrBytes, meta.gloss_byte_count);
  if (!gloss_bytes.ok()) return gloss_bytes.status();
  XSDF_RETURN_IF_ERROR(
      ValidateCsr(*syn_offsets, meta.synonym_token_count, "synonym"));
  XSDF_RETURN_IF_ERROR(ValidateCsr(*edge_offsets, meta.edge_count, "edge"));
  XSDF_RETURN_IF_ERROR(
      ValidateCsr(*gloss_offsets, meta.gloss_byte_count, "gloss string"));

  std::vector<Concept> concepts(static_cast<size_t>(n));
  for (uint64_t c = 0; c < n; ++c) {
    Concept& node = concepts[static_cast<size_t>(c)];
    node.id = static_cast<ConceptId>(c);
    if ((*pos)[c] > 3) return Status::Corruption("bad part of speech");
    node.pos = static_cast<PartOfSpeech>((*pos)[c]);
    node.lex_file = (*lex_file)[c];
    node.frequency = (*frequency)[c];
    uint64_t syn_begin = (*syn_offsets)[c];
    uint64_t syn_end = (*syn_offsets)[c + 1];
    if (syn_begin == syn_end) {
      return Status::Corruption("concept without synonyms");
    }
    node.synonyms.reserve(static_cast<size_t>(syn_end - syn_begin));
    for (uint64_t i = syn_begin; i < syn_end; ++i) {
      uint32_t token = (*syn_tokens)[i];
      if (token >= meta.token_count) {
        return Status::Corruption("synonym token id out of range");
      }
      node.synonyms.push_back(interner.Spelling(token));
    }
    uint64_t edge_begin = (*edge_offsets)[c];
    uint64_t edge_end = (*edge_offsets)[c + 1];
    node.edges.reserve(static_cast<size_t>(edge_end - edge_begin));
    for (uint64_t i = edge_begin; i < edge_end; ++i) {
      const EdgeRecord& record = (*edges)[i];
      if (record.relation < 0 || record.relation > kMaxRelation ||
          record.target < 0 || static_cast<uint64_t>(record.target) >= n) {
        return Status::Corruption("edge record malformed");
      }
      node.edges.push_back(
          {static_cast<Relation>(record.relation), record.target});
    }
    node.gloss.assign(gloss_bytes->data() + (*gloss_offsets)[c],
                      static_cast<size_t>((*gloss_offsets)[c + 1] -
                                          (*gloss_offsets)[c]));
  }

  auto network = std::make_shared<SemanticNetwork>();
  NetworkCodec::Restore(network.get(), std::move(concepts),
                        std::move(interner), std::move(senses_by_token),
                        lemma_count, meta.total_frequency,
                        meta.max_information_content, tables,
                        std::move(backing));
  return std::shared_ptr<const SemanticNetwork>(std::move(network));
}

Result<std::shared_ptr<const SemanticNetwork>> LoadNetworkSnapshot(
    const std::string& path) {
  Result<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  auto holder = std::make_shared<MappedFile>(std::move(mapped).value());
  const uint8_t* data = holder->data();
  size_t size = holder->size();
  return LoadNetworkSnapshotFromBuffer(
      std::shared_ptr<const void>(holder, holder.get()), data, size);
}

}  // namespace xsdf::snapshot
