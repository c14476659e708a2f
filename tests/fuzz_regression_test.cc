// Replays the checked-in fuzz corpora through the fuzzing oracles in
// plain gtest, so every input that ever crashed a parser (and every
// seed input) is re-checked by ordinary ctest runs on every
// configuration — no sanitizer runtime or libFuzzer required. The
// oracles abort() on violation, which gtest reports as a crashed test.
//
// Layout (relative to the repo root, baked in via XSDF_SOURCE_DIR):
//   fuzz/corpus/{frontend,wndb,snapshot}           seed inputs
//   fuzz/corpus/regressions/<corpus>/              past crashes

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harnesses.h"

namespace xsdf {
namespace {

using DriveFn = void (*)(const uint8_t*, size_t);

std::vector<std::filesystem::path> CorpusFiles(const std::string& subdir) {
  std::filesystem::path dir =
      std::filesystem::path(XSDF_SOURCE_DIR) / "fuzz" / "corpus" / subdir;
  std::vector<std::filesystem::path> files;
  if (!std::filesystem::exists(dir)) return files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

void ReplayDirectory(const std::string& subdir, DriveFn drive,
                     bool required) {
  std::vector<std::filesystem::path> files = CorpusFiles(subdir);
  if (required) {
    ASSERT_FALSE(files.empty())
        << "no corpus files under fuzz/corpus/" << subdir;
  }
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "unreadable corpus file";
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    drive(reinterpret_cast<const uint8_t*>(contents.data()),
          contents.size());
  }
}

TEST(FuzzRegressionTest, FrontEndSeedCorpusReplaysClean) {
  ReplayDirectory("frontend", fuzz::DriveFrontEnd, /*required=*/true);
}

TEST(FuzzRegressionTest, WndbSeedCorpusReplaysClean) {
  ReplayDirectory("wndb", fuzz::DriveWndbParser, /*required=*/true);
}

TEST(FuzzRegressionTest, SnapshotSeedCorpusReplaysClean) {
  ReplayDirectory("snapshot", fuzz::DriveSnapshotLoader, /*required=*/true);
}

// Past crashing inputs, checked in under fuzz/corpus/regressions/ with
// one file per fixed bug (named after the defect). These directories
// may be empty in a tree where no crash has been found yet; the test
// then just verifies the directory scan itself.
TEST(FuzzRegressionTest, FrontEndCrashRegressionsStayFixed) {
  ReplayDirectory("regressions/frontend", fuzz::DriveFrontEnd,
                  /*required=*/false);
}

TEST(FuzzRegressionTest, WndbCrashRegressionsStayFixed) {
  ReplayDirectory("regressions/wndb", fuzz::DriveWndbParser,
                  /*required=*/false);
}

TEST(FuzzRegressionTest, SnapshotCrashRegressionsStayFixed) {
  ReplayDirectory("regressions/snapshot", fuzz::DriveSnapshotLoader,
                  /*required=*/false);
}

// The harnesses parse under a 4,096-deep cap (FuzzXmlOptions). A chain
// at the cap, and one past it, must run through every oracle — the
// test-only DOM, its serializer and equality, and both DOM walks —
// which therefore keep explicit stacks instead of recursing per level.
// Flags 0x04 keep whitespace text and value tokens; 0x00 drops the
// tokens, 0x05 the whitespace-only text.
TEST(FuzzRegressionTest, ChainsAtTheFuzzDepthCapRunClean) {
  for (int depth : {4096, 4097}) {
    std::string xml;
    for (int d = 0; d < depth; ++d) xml += "<a x=\"star\">word ";
    for (int d = 0; d < depth; ++d) xml += "</a>";
    for (char flags : {'\x00', '\x04', '\x05'}) {
      const std::string input = flags + xml;
      fuzz::DriveFrontEnd(reinterpret_cast<const uint8_t*>(input.data()),
                          input.size());
    }
  }
}

}  // namespace
}  // namespace xsdf
