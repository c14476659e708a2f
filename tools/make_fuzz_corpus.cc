// Regenerates the checked-in fuzz seed corpora (fuzz/corpus/{frontend,
// wndb,snapshot}) from the deterministic generators in tests/prop. Run
// from the repo root:
//
//   ./build/tools/make_fuzz_corpus fuzz/corpus
//
// Seeds are derived from fixed Rng seeds, so the tool is idempotent:
// rerunning it produces byte-identical files, keeping corpus diffs
// reviewable. Handcrafted edge-case seeds live alongside the generated
// ones and are never overwritten (generated files carry a gen_ prefix).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/strings.h"
#include "prop/generators.h"
#include "snapshot/snapshot.h"
#include "wordnet/wndb.h"

namespace {

bool WriteFile(const std::filesystem::path& path,
               const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  if (!out.good()) {
    std::fprintf(stderr, "failed to write %s\n", path.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-directory>\n", argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path root = argv[1];
  bool ok = true;

  // Front-end seeds: one option-flag byte, then an XML document.
  // Varied generator settings make documents exercising every construct
  // the parser knows; each goes in once with flags 0x04 (whitespace
  // kept, values included) and once behind a flag byte cycling through
  // all eight combinations, unless that byte is 0x04 too.
  fs::create_directories(root / "frontend");
  {
    xsdf::Rng rng(0xc0597501);
    for (int i = 0; i < 24; ++i) {
      xsdf::propgen::XmlGenOptions gen;
      gen.max_depth = 2 + i % 6;
      gen.max_children = 1 + i % 5;
      gen.allow_cdata = i % 2 == 0;
      gen.allow_misc = i % 3 != 0;
      gen.allow_entities = i % 4 != 1;
      std::string doc = xsdf::propgen::GenerateXmlDocument(rng, gen);
      ok &= WriteFile(root / "frontend" /
                          xsdf::StrFormat("gen_xml_%02d.bin", i),
                      '\x04' + doc);
      if (i % 8 != 4) {
        ok &= WriteFile(root / "frontend" /
                            xsdf::StrFormat("gen_stream_%02d.bin", i),
                        static_cast<char>(i % 8) + doc);
      }
    }
  }

  // WNDB seeds: packed file sets of generated mini-lexicons.
  fs::create_directories(root / "wndb");
  {
    xsdf::Rng rng(0xc0597502);
    for (int i = 0; i < 12; ++i) {
      xsdf::propgen::LexiconGenOptions gen;
      gen.min_concepts = 2 + i;
      gen.max_concepts = 6 + 2 * i;
      auto network = xsdf::propgen::GenerateMiniLexicon(rng, gen);
      auto files = xsdf::wordnet::WriteWndb(network);
      if (!files.ok()) {
        std::fprintf(stderr, "lexicon %d failed: %s\n", i,
                     files.status().ToString().c_str());
        ok = false;
        continue;
      }
      ok &= WriteFile(root / "wndb" /
                          xsdf::StrFormat("gen_%02d.wndb", i),
                      xsdf::propgen::PackWndbContainer(*files));
    }
  }

  // More front-end seeds, each behind a random flag byte.
  {
    xsdf::Rng rng(0xc0597503);
    for (int i = 0; i < 12; ++i) {
      std::string doc = xsdf::propgen::GenerateXmlDocument(rng);
      std::string input;
      input += static_cast<char>(rng.UniformInt(256));
      input += doc;
      ok &= WriteFile(root / "frontend" /
                          xsdf::StrFormat("gen_tree_%02d.bin", i), input);
    }
  }

  // Snapshot seeds: valid snapshots of small finalized lexicons, plus
  // truncated and bit-flipped variants so the fuzzer starts from both
  // sides of every validation check instead of having to discover the
  // 64-byte header format byte by byte.
  fs::create_directories(root / "snapshot");
  {
    xsdf::Rng rng(0xc0597504);
    for (int i = 0; i < 6; ++i) {
      xsdf::propgen::LexiconGenOptions gen;
      gen.min_concepts = 2 + 2 * i;
      gen.max_concepts = 6 + 3 * i;
      auto network = xsdf::propgen::GenerateMiniLexicon(rng, gen);
      network.FinalizeFrequencies();
      auto bytes = xsdf::snapshot::WriteNetworkSnapshot(network);
      if (!bytes.ok()) {
        std::fprintf(stderr, "snapshot %d failed: %s\n", i,
                     bytes.status().ToString().c_str());
        ok = false;
        continue;
      }
      ok &= WriteFile(root / "snapshot" /
                          xsdf::StrFormat("gen_%02d.snap", i),
                      *bytes);
      if (i == 0) {
        // Truncations of the first snapshot: mid-header, mid-section
        // table, and mid-payload.
        for (size_t cut : {size_t{17}, size_t{64}, bytes->size() / 2,
                           bytes->size() - 3}) {
          ok &= WriteFile(
              root / "snapshot" /
                  xsdf::StrFormat("gen_trunc_%04zu.snap", cut),
              bytes->substr(0, cut));
        }
        // Deterministic bit flips spread across header, section table,
        // and payload.
        for (size_t pos : {size_t{8}, size_t{70},
                           bytes->size() / 3, 2 * bytes->size() / 3}) {
          std::string flipped = *bytes;
          flipped[pos % flipped.size()] =
              static_cast<char>(flipped[pos % flipped.size()] ^ 0x40);
          ok &= WriteFile(
              root / "snapshot" /
                  xsdf::StrFormat("gen_flip_%04zu.snap", pos),
              flipped);
        }
      }
    }
  }

  std::fprintf(stderr, "corpus written under %s\n",
               root.string().c_str());
  return ok ? 0 : 1;
}
