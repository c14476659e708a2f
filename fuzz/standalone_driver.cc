// Replay/mutation driver used when the toolchain has no libFuzzer
// (gcc): gives every fuzz target a main() so crash reproduction and
// corpus regression runs work identically on either compiler, plus a
// dumb (non-coverage-guided) mutation mode for smoke fuzzing.
//
//   fuzz_frontend file1 [file2 ...]            replay individual inputs
//   fuzz_frontend -dir <directory>             replay every file in a dir
//   fuzz_frontend -mutate <iters> <seed> <dir>
//       load the corpus in <dir>, then run <iters> rounds of
//       mutate-and-execute from Rng seed <seed>; honors the target's
//       LLVMFuzzerCustomMutator when it defines one (the WNDB
//       structured mutator), falling back to byte mutation otherwise.
//
// Exits 0 when every input was processed (the oracles abort() on
// violation, so a bug is a non-zero exit + stderr report).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "prop/generators.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);
extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size,
                                          unsigned int seed)
    __attribute__((weak));

namespace {

constexpr size_t kMaxInputSize = 1u << 20;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return true;
}

bool ReplayFile(const std::string& path) {
  std::string contents;
  if (!ReadFile(path, &contents)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  LLVMFuzzerTestOneInput(
      reinterpret_cast<const uint8_t*>(contents.data()), contents.size());
  std::fprintf(stderr, "OK %s (%zu bytes)\n", path.c_str(),
               contents.size());
  return true;
}

std::vector<std::string> ListDirectory(const char* dir) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  return files;
}

int MutationLoop(long iterations, uint64_t seed, const char* corpus_dir) {
  std::vector<std::string> seeds;
  for (const std::string& path : ListDirectory(corpus_dir)) {
    std::string contents;
    if (ReadFile(path, &contents) && contents.size() <= kMaxInputSize) {
      seeds.push_back(std::move(contents));
    }
  }
  if (seeds.empty()) {
    std::fprintf(stderr, "no usable seeds under %s\n", corpus_dir);
    return 2;
  }
  xsdf::Rng rng(seed);
  std::vector<uint8_t> buffer(kMaxInputSize);
  std::string current = seeds[0];
  for (long i = 0; i < iterations; ++i) {
    // Restart from a pristine seed now and then so mutations don't
    // drift irrecoverably far from the interesting grammar.
    if (i % 64 == 0 || current.empty()) {
      current = seeds[rng.UniformInt(seeds.size())];
    }
    size_t size = current.size();
    std::memcpy(buffer.data(), current.data(), size);
    if (LLVMFuzzerCustomMutator != nullptr) {
      size = LLVMFuzzerCustomMutator(
          buffer.data(), size, buffer.size(),
          static_cast<unsigned int>(rng.Next()));
    } else {
      std::string mutated = xsdf::propgen::MutateBytes(
          rng, {reinterpret_cast<const char*>(buffer.data()), size},
          1 + static_cast<int>(rng.UniformInt(8)));
      size = std::min(mutated.size(), buffer.size());
      std::memcpy(buffer.data(), mutated.data(), size);
    }
    LLVMFuzzerTestOneInput(buffer.data(), size);
    current.assign(reinterpret_cast<const char*>(buffer.data()), size);
    if ((i + 1) % 5000 == 0) {
      std::fprintf(stderr, "#%ld rounds\n", i + 1);
    }
  }
  std::fprintf(stderr, "completed %ld mutation rounds, no oracle "
               "violation\n", iterations);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <input-file>... | -dir <corpus-directory> | "
                 "-mutate <iterations> <seed> <corpus-directory>\n"
                 "(standalone replay driver; build with clang for "
                 "coverage-guided fuzzing)\n",
                 argv[0]);
    return 2;
  }
  if (std::strcmp(argv[1], "-mutate") == 0) {
    if (argc != 5) {
      std::fprintf(stderr, "-mutate takes <iterations> <seed> <dir>\n");
      return 2;
    }
    return MutationLoop(std::strtol(argv[2], nullptr, 10),
                        std::strtoull(argv[3], nullptr, 10), argv[4]);
  }
  std::vector<std::string> inputs;
  if (std::strcmp(argv[1], "-dir") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "-dir takes exactly one directory\n");
      return 2;
    }
    inputs = ListDirectory(argv[2]);
  } else {
    for (int i = 1; i < argc; ++i) inputs.emplace_back(argv[i]);
  }
  int failures = 0;
  for (const std::string& path : inputs) {
    if (!ReplayFile(path)) ++failures;
  }
  std::fprintf(stderr, "replayed %zu inputs, %d unreadable\n",
               inputs.size(), failures);
  return failures == 0 ? 0 : 1;
}
