// Snapshot codec tests: a snapshot round-trips the finalized network
// exactly (tables, concepts, and end-to-end disambiguation output),
// and the loader treats every malformed byte stream as a Status —
// truncations, bit flips, and header forgeries included.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/semantic_network.h"

namespace xsdf {
namespace {

using snapshot::LoadNetworkSnapshot;
using snapshot::LoadNetworkSnapshotFromBuffer;
using snapshot::WriteNetworkSnapshot;
using snapshot::WriteNetworkSnapshotFile;
using wordnet::BuildMiniWordNet;
using wordnet::ConceptId;
using wordnet::SemanticNetwork;

/// Copies `bytes` into 8-byte-aligned storage and loads it. The
/// backing vector keeps the bytes alive inside the returned network.
Result<std::shared_ptr<const SemanticNetwork>> LoadFromString(
    const std::string& bytes) {
  auto aligned = std::make_shared<std::vector<uint64_t>>(
      (bytes.size() + 7) / 8);
  // An empty vector's data() may be null, and memcpy to null is
  // undefined even for zero bytes.
  if (!bytes.empty()) {
    std::memcpy(aligned->data(), bytes.data(), bytes.size());
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(aligned->data());
  return LoadNetworkSnapshotFromBuffer(
      std::shared_ptr<const void>(aligned, aligned->data()), data,
      bytes.size());
}

SemanticNetwork BuildMini() {
  Result<SemanticNetwork> result = BuildMiniWordNet();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::string MiniSnapshot() {
  SemanticNetwork network = BuildMini();
  Result<std::string> bytes = WriteNetworkSnapshot(network);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

TEST(SnapshotTest, RequiresFinalizedNetwork) {
  SemanticNetwork network;
  network.AddConcept(wordnet::PartOfSpeech::kNoun, {"entity"},
                     "that which exists");
  Result<std::string> bytes = WriteNetworkSnapshot(network);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RoundTripPreservesEveryTable) {
  SemanticNetwork live = BuildMini();
  Result<std::string> bytes = WriteNetworkSnapshot(live);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  auto loaded = LoadFromString(*bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SemanticNetwork& restored = **loaded;

  ASSERT_EQ(restored.size(), live.size());
  EXPECT_TRUE(restored.finalized());
  EXPECT_EQ(restored.LemmaCount(), live.LemmaCount());
  EXPECT_EQ(restored.interner().size(), live.interner().size());
  EXPECT_EQ(restored.TotalFrequency(), live.TotalFrequency());
  EXPECT_EQ(restored.MaxInformationContent(), live.MaxInformationContent());

  for (size_t i = 0; i < live.size(); ++i) {
    ConceptId id = static_cast<ConceptId>(i);
    const wordnet::Concept& a = live.GetConcept(id);
    const wordnet::Concept& b = restored.GetConcept(id);
    ASSERT_EQ(b.id, a.id);
    EXPECT_EQ(b.pos, a.pos);
    EXPECT_EQ(b.lex_file, a.lex_file);
    EXPECT_EQ(b.frequency, a.frequency);
    EXPECT_EQ(b.synonyms, a.synonyms);
    EXPECT_EQ(b.gloss, a.gloss);
    EXPECT_EQ(b.edges, a.edges);

    // Kernel tables: doubles must be bit-identical, not just close —
    // the determinism contract says mapped and live-built networks are
    // indistinguishable.
    auto anc_a = live.Ancestors(id);
    auto anc_b = restored.Ancestors(id);
    ASSERT_EQ(anc_b.size(), anc_a.size());
    for (size_t k = 0; k < anc_a.size(); ++k) {
      EXPECT_EQ(anc_b[k].id, anc_a[k].id);
      EXPECT_EQ(anc_b[k].distance, anc_a[k].distance);
    }
    auto gloss_a = live.GlossTokens(id);
    auto gloss_b = restored.GlossTokens(id);
    ASSERT_TRUE(std::equal(gloss_a.begin(), gloss_a.end(), gloss_b.begin(),
                           gloss_b.end()));
    auto bag_a = live.GlossTokenBag(id);
    auto bag_b = restored.GlossTokenBag(id);
    ASSERT_TRUE(std::equal(bag_a.begin(), bag_a.end(), bag_b.begin(),
                           bag_b.end()));
    EXPECT_EQ(restored.InformationContentOf(id),
              live.InformationContentOf(id));
    EXPECT_EQ(restored.CumulativeFrequency(id), live.CumulativeFrequency(id));
    EXPECT_EQ(restored.Depth(id), live.Depth(id));
    EXPECT_EQ(restored.LabelTokenId(id), live.LabelTokenId(id));
  }

  // Lemma lookups go through the re-built interner + sense index.
  for (const char* lemma : {"cat", "dog", "bank", "entity", "head"}) {
    EXPECT_EQ(restored.Senses(lemma), live.Senses(lemma)) << lemma;
  }
  EXPECT_EQ(restored.MaxPolysemy(), live.MaxPolysemy());
}

TEST(SnapshotTest, SnapshotOfSnapshotIsByteIdentical) {
  std::string first = MiniSnapshot();
  auto loaded = LoadFromString(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<std::string> second = WriteNetworkSnapshot(**loaded);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, first);
}

/// The acceptance bar for serving from snapshots: a snapshot-backed
/// engine produces byte-identical semantic XML to a live-built one, at
/// one worker and at eight.
TEST(SnapshotTest, DisambiguationIsByteIdenticalToLiveNetwork) {
  SemanticNetwork live = BuildMini();
  std::string bytes = MiniSnapshot();
  auto loaded = LoadFromString(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::vector<runtime::DocumentJob> jobs;
  jobs.push_back({0, "clinic",
                  "<patient><name>rex</name><condition>rabies"
                  "</condition><doctor>smith</doctor></patient>"});
  jobs.push_back({0, "finance",
                  "<bank><branch>main</branch><account><balance>12"
                  "</balance></account></bank>"});
  jobs.push_back({0, "zoo",
                  "<animal><cat><head>round</head></cat><dog><tail>"
                  "long</tail></dog></animal>"});

  std::vector<std::string> expected;
  {
    runtime::EngineOptions options;
    options.threads = 1;
    runtime::DisambiguationEngine engine(&live, options);
    for (const runtime::DocumentResult& r : engine.RunBatch(jobs)) {
      ASSERT_TRUE(r.ok) << r.error;
      expected.push_back(r.semantic_xml);
    }
  }
  for (int threads : {1, 8}) {
    runtime::EngineOptions options;
    options.threads = threads;
    runtime::DisambiguationEngine engine(loaded->get(), options);
    std::vector<runtime::DocumentResult> results = engine.RunBatch(jobs);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].semantic_xml, expected[i])
          << "doc " << i << " with " << threads << " workers";
    }
  }
}

TEST(SnapshotTest, FileRoundTripThroughMmap) {
  SemanticNetwork live = BuildMini();
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "xsdf_snapshot_test.snap";
  Status written = WriteNetworkSnapshotFile(live, path.string());
  ASSERT_TRUE(written.ok()) << written.ToString();

  auto loaded = LoadNetworkSnapshot(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), live.size());
  EXPECT_EQ((*loaded)->Senses("cat"), live.Senses("cat"));
  std::filesystem::remove(path);
}

TEST(SnapshotTest, EveryTruncationFailsCleanly) {
  std::string bytes = MiniSnapshot();
  ASSERT_GT(bytes.size(), 4096u);
  std::vector<size_t> sizes;
  for (size_t s = 0; s <= 256; ++s) sizes.push_back(s);
  for (size_t s = 257; s < bytes.size(); s += 997) sizes.push_back(s);
  sizes.push_back(bytes.size() - 8);
  sizes.push_back(bytes.size() - 1);
  for (size_t s : sizes) {
    auto loaded = LoadFromString(bytes.substr(0, s));
    EXPECT_FALSE(loaded.ok()) << "truncation to " << s << " bytes loaded";
  }
}

TEST(SnapshotTest, EverySampledBitFlipFailsCleanly) {
  std::string bytes = MiniSnapshot();
  for (size_t offset = 0; offset < bytes.size(); offset += 131) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(
        static_cast<uint8_t>(mutated[offset]) ^ (1u << (offset % 8)));
    auto loaded = LoadFromString(mutated);
    EXPECT_FALSE(loaded.ok()) << "bit flip at byte " << offset << " loaded";
  }
}

/// A hostile file can re-seal its checksum, so every count in
/// MetaSection is attacker-controlled. A count of `real + 2^62` u32
/// elements is exactly 2^64 extra bytes — `count * sizeof(T)` wraps
/// back to the true section size, and only an overflow-safe size check
/// stops the loader from believing a ~2^62-element span.
TEST(SnapshotTest, RejectsOverflowingSectionCounts) {
  std::string bytes = MiniSnapshot();
  snapshot::SnapshotHeader header;
  ASSERT_GE(bytes.size(), sizeof(header));
  std::memcpy(&header, bytes.data(), sizeof(header));

  uint64_t meta_offset = 0;
  uint64_t gloss_offsets_offset = 0;
  uint64_t gloss_offsets_size = 0;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    snapshot::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id == static_cast<uint32_t>(snapshot::SectionId::kMeta)) {
      meta_offset = entry.offset;
    }
    if (entry.id ==
        static_cast<uint32_t>(snapshot::SectionId::kGlossOffsets)) {
      gloss_offsets_offset = entry.offset;
      gloss_offsets_size = entry.size;
    }
  }
  ASSERT_NE(meta_offset, 0u);
  ASSERT_NE(gloss_offsets_offset, 0u);

  // gloss_token_count is the u64 at byte 56 of MetaSection.
  uint64_t gloss_token_count = 0;
  std::memcpy(&gloss_token_count, bytes.data() + meta_offset + 56,
              sizeof(gloss_token_count));
  const uint64_t hostile = gloss_token_count + (1ull << 62);
  std::memcpy(bytes.data() + meta_offset + 56, &hostile, sizeof(hostile));
  // Make the CSR terminator agree, so the section size check is the
  // only remaining line of defense.
  std::memcpy(bytes.data() + gloss_offsets_offset + gloss_offsets_size - 8,
              &hostile, sizeof(hostile));
  uint64_t checksum = snapshot::Fnv1a64(
      reinterpret_cast<const uint8_t*>(bytes.data()) + sizeof(header),
      bytes.size() - sizeof(header));
  std::memcpy(bytes.data() + 24, &checksum, sizeof(checksum));

  auto loaded = LoadFromString(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(SnapshotTest, RejectsHeaderForgeries) {
  std::string bytes = MiniSnapshot();
  {
    std::string bad = bytes;
    bad[0] ^= 0x01;  // magic
    EXPECT_FALSE(LoadFromString(bad).ok());
  }
  {
    std::string bad = bytes;
    uint32_t version = snapshot::kSnapshotVersion + 1;
    std::memcpy(bad.data() + 8, &version, sizeof(version));
    EXPECT_FALSE(LoadFromString(bad).ok());
  }
  {
    std::string bad = bytes;
    uint32_t endian = 0x04030201u;
    std::memcpy(bad.data() + 12, &endian, sizeof(endian));
    EXPECT_FALSE(LoadFromString(bad).ok());
  }
  {
    std::string bad = bytes;
    uint64_t size = bytes.size() + 8;
    std::memcpy(bad.data() + 16, &size, sizeof(size));
    EXPECT_FALSE(LoadFromString(bad).ok());
  }
  EXPECT_FALSE(LoadFromString(std::string()).ok());
}

TEST(SnapshotTest, RejectsUnalignedBuffer) {
  std::string bytes = MiniSnapshot();
  auto storage = std::make_shared<std::vector<uint64_t>>(
      bytes.size() / 8 + 2);
  uint8_t* base = reinterpret_cast<uint8_t*>(storage->data()) + 1;
  std::memcpy(base, bytes.data(), bytes.size());
  auto loaded = LoadNetworkSnapshotFromBuffer(
      std::shared_ptr<const void>(storage, storage->data()), base,
      bytes.size());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xsdf
