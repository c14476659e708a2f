// Parser golden: pins what xml::StreamParse reports for a fixed input
// set — a hash of the whole event stream (every event's kind and
// bytes, including the events before an error) and the status text,
// code, message and line:column included — and byte-compares the
// report against tests/golden/parser_golden.txt. The inputs are every
// checked-in fuzz corpus file that carries XML, 500 generated and 2,000
// mutated tests/prop documents, and element chains at the depth cap and
// one level past it, each parsed under the default options and under
// propgen::TightXmlOptions(). A parser rewrite that moves one event,
// message or position fails here.
//
// Regenerating after an *intentional* parser change:
//   XSDF_UPDATE_GOLDEN=1 ./parser_golden_test
// rewrites the golden in the source tree; review the diff like code.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "prop/generators.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

constexpr char kGoldenPath[] =
    XSDF_SOURCE_DIR "/tests/golden/parser_golden.txt";

/// FNV-1a over every event: a kind byte, then each payload's length
/// and bytes, so adjacent payloads cannot alias.
class HashingHandler : public xml::StreamHandler {
 public:
  uint64_t hash() const { return hash_; }

  Status OnStartElement(std::string_view name) override {
    Event('S', name);
    return Status::Ok();
  }
  Status OnAttribute(std::string_view name, std::string_view value) override {
    Event('A', name);
    Bytes(value);
    return Status::Ok();
  }
  Status OnStartTagDone() override {
    Event('D', {});
    return Status::Ok();
  }
  Status OnText(std::string_view text) override {
    Event('T', text);
    return Status::Ok();
  }
  Status OnCData(std::string_view text) override {
    Event('C', text);
    return Status::Ok();
  }
  Status OnEndElement(std::string_view name) override {
    Event('E', name);
    return Status::Ok();
  }

 private:
  void Byte(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ull;
  }
  void Bytes(std::string_view bytes) {
    for (int shift = 0; shift < 64; shift += 8) {
      Byte(static_cast<uint8_t>(bytes.size() >> shift));
    }
    for (char c : bytes) Byte(static_cast<uint8_t>(c));
  }
  void Event(char kind, std::string_view payload) {
    Byte(static_cast<uint8_t>(kind));
    Bytes(payload);
  }

  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Input {
  std::string id;
  std::string text;
};

/// Corpus files under fuzz/corpus/`subdir`, in path order. The tree
/// and stream harnesses read their first byte as option flags, so
/// `skip_flag_byte` drops it to leave the XML they parse.
void AddCorpus(const std::string& subdir, bool skip_flag_byte,
               std::vector<Input>* inputs) {
  const std::filesystem::path root =
      std::filesystem::path(XSDF_SOURCE_DIR) / "fuzz" / "corpus";
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root / subdir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (skip_flag_byte && !text.empty()) text.erase(0, 1);
    inputs->push_back(
        {std::filesystem::relative(path, root).generic_string(),
         std::move(text)});
  }
}

std::string Chain(int depth) {
  std::string text;
  for (int d = 0; d < depth; ++d) text += "<a>";
  for (int d = 0; d < depth; ++d) text += "</a>";
  return text;
}

std::vector<Input> Inputs() {
  std::vector<Input> inputs;
  AddCorpus("xml", false, &inputs);
  AddCorpus("stream", true, &inputs);
  AddCorpus("tree", true, &inputs);
  AddCorpus("regressions/xml", false, &inputs);
  AddCorpus("regressions/tree", true, &inputs);
  AddCorpus("regressions/wndb", false, &inputs);
  Rng generated(0x9a1de001);
  for (int i = 0; i < 500; ++i) {
    inputs.push_back({StrFormat("generated/%d", i),
                      propgen::GenerateXmlDocument(generated)});
  }
  Rng mutated(0x9a1de002);
  for (int i = 0; i < 2000; ++i) {
    std::string text = propgen::GenerateXmlDocument(mutated);
    text = propgen::MutateBytes(mutated, text,
                                1 + static_cast<int>(mutated.UniformInt(8)));
    inputs.push_back({StrFormat("mutated/%d", i), std::move(text)});
  }
  for (int depth : {xml::ParseLimits{}.max_depth,
                    propgen::TightXmlOptions().limits.max_depth}) {
    inputs.push_back({StrFormat("chain/%d", depth), Chain(depth)});
    inputs.push_back({StrFormat("chain/%d", depth + 1), Chain(depth + 1)});
  }
  return inputs;
}

/// `status` as one line of printable ASCII: messages quote input
/// bytes, so control and non-ASCII bytes print as \xNN.
std::string StatusLine(const Status& status) {
  std::string line;
  for (char c : status.ToString()) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte >= 0x7f || c == '\\') {
      line += StrFormat("\\x%02x", byte);
    } else {
      line += c;
    }
  }
  return line;
}

/// One line per input and option set, `<id> <options> <event hash>
/// <status>`; when both option sets give the same result the line
/// names them together as `both`.
std::string Report() {
  const xml::ParseOptions tight = propgen::TightXmlOptions();
  std::string report;
  for (const Input& input : Inputs()) {
    std::string results[2];
    for (int i = 0; i < 2; ++i) {
      HashingHandler handler;
      const Status status = xml::StreamParse(
          input.text, &handler, i == 0 ? xml::ParseOptions{} : tight);
      results[i] = StrFormat("%016llx %s",
                             static_cast<unsigned long long>(handler.hash()),
                             StatusLine(status).c_str());
    }
    if (results[0] == results[1]) {
      report += input.id + " both " + results[0] + "\n";
    } else {
      report += input.id + " default " + results[0] + "\n";
      report += input.id + " tight " + results[1] + "\n";
    }
  }
  return report;
}

TEST(ParserGoldenTest, EventsAndStatusesMatchTheGolden) {
  const std::string report = Report();
  if (std::getenv("XSDF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    out << report;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden rewritten: " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in) << kGoldenPath
                  << " missing; run with XSDF_UPDATE_GOLDEN=1 to create";
  std::ostringstream golden;
  golden << in.rdbuf();
  const std::string expected = golden.str();
  if (report == expected) return;
  // Name the first differing line rather than dumping both reports.
  std::istringstream got_lines(report);
  std::istringstream want_lines(expected);
  std::string got;
  std::string want;
  int line = 1;
  while (std::getline(want_lines, want)) {
    if (!std::getline(got_lines, got) || got != want) break;
    ++line;
  }
  ADD_FAILURE() << "parser report differs from " << kGoldenPath
                << " at line " << line << "\n  golden: " << want
                << "\n  parser: " << got;
}

}  // namespace
}  // namespace xsdf
