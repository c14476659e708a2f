// xsdf — command-line front end to the XSDF library.
//
//   xsdf disambiguate <file.xml> [radius]   annotate a document and
//                                           print the semantic tree
//   xsdf batch <dir|filelist> [flags]       concurrent batch mode
//   xsdf gen-corpus <dir> [--seed S]        write the example corpus
//   xsdf ambiguity <file.xml>               rank nodes by Amb_Deg
//   xsdf query <file.xml> <path>            evaluate an XPath-lite query
//   xsdf expand <keyword> <file.xml>        in-context query expansion
//   xsdf network-stats                      mini-WordNet statistics
//   xsdf export-wndb <dir>                  write the lexicon as WNDB
//
// The semantic network is loaded exactly once per process, lazily, on
// the first command that needs it; every subcommand receives it by
// reference. Reads the bundled mini-WordNet; point XSDF_WNDB_DIR at a
// WNDB directory (e.g. a real WordNet dict/) to use that instead.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/ambiguity.h"
#include "core/disambiguator.h"
#include "core/node_query.h"
#include "core/streaming_builder.h"
#include "datasets/generator.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "serve/http.h"
#include "serve/server.h"
#include "sim/measure_config.h"
#include "snapshot/snapshot.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/wndb.h"
#include "xml/parser.h"
#include "xml/path_query.h"

namespace {

namespace fs = std::filesystem;
using xsdf::wordnet::SemanticNetwork;

int Usage() {
  std::fprintf(
      stderr,
      "usage: xsdf <command> [args]\n"
      "  disambiguate <file.xml> [radius]  annotate and print semantic tree\n"
      "  batch <dir|filelist> [flags]      disambiguate a corpus "
      "concurrently\n"
      "      --threads N   worker threads (default 4; 0 = auto-detect)\n"
      "      --radius D    sphere radius (default 2)\n"
      "      --measures M  similarity composition name:weight,...\n"
      "                    over registered measures (wu-palmer, lin,\n"
      "                    gloss-overlap, resnik, conceptual-density);\n"
      "                    weights must sum to 1 (default: the paper\n"
      "                    hybrid, equal thirds wu-palmer/lin/gloss)\n"
      "      --passes P    runs over the corpus; caches stay warm "
      "(default 1)\n"
      "      --no-cache    disable the shared similarity (pair) cache\n"
      "      --quiet       suppress per-document trees on stdout\n"
      "      --metrics-out FILE  write counters + latency histograms as "
      "JSON\n"
      "      --trace-out FILE    write Chrome trace-event JSON "
      "(Perfetto)\n"
      "      --max-input-bytes N  per-document input size cap (default "
      "64MiB)\n"
      "      --max-depth N        element nesting cap (default 256)\n"
      "  explain <file.xml> <node> [--radius D] [--measures M]\n"
      "                                    per-node disambiguation audit "
      "as JSON;\n"
      "                                    <node> is a numeric node id or "
      "a\n"
      "                                    tag path like films/picture/"
      "director\n"
      "  gen-corpus <dir> [--seed S]       write the generated example "
      "corpus\n"
      "      --giant N           instead: write N giant documents\n"
      "      --target-bytes B    size of each giant document (default "
      "50MB)\n"
      "  ambiguity <file.xml>              rank nodes by ambiguity degree\n"
      "  query <file.xml> <path>           evaluate an XPath-lite query\n"
      "  expand <keyword> <file.xml>       context-aware term expansion\n"
      "  network-stats                     semantic network statistics\n"
      "  export-wndb <dir>                 write lexicon as WNDB files\n"
      "  snapshot <out.snap>               write the lexicon as a binary\n"
      "                                    snapshot (mmap'd by serve)\n"
      "  serve [flags]                     resident disambiguation "
      "service\n"
      "      --port N            listen port (default 8080; 0 = "
      "ephemeral)\n"
      "      --host H            bind address (default 127.0.0.1)\n"
      "      --snapshot FILE     cold-start from a snapshot instead of\n"
      "                          parsing WNDB / building mini-WordNet\n"
      "      --threads N         engine workers (default 4; 0 = "
      "auto-detect)\n"
      "      --radius D          sphere radius (default 2)\n"
      "      --measures M        similarity composition (see batch)\n"
      "      --queue-capacity N  admission queue; overflow answers 429\n"
      "      --max-connections N concurrent connections cap (503 "
      "beyond)\n"
      "      --no-admin          disable POST /admin/swap\n"
      "      --admin-snapshot-dir DIR\n"
      "                          only allow /admin/swap snapshots "
      "inside DIR\n"
      "      --admin-token T     require X-Xsdf-Admin-Token: T on "
      "/admin/swap\n"
      "      --access-log FILE   append one JSON line per request "
      "(JSONL)\n"
      "      --slow-keep N       slowest traces kept per window for\n"
      "                          GET /debug/slow (default 8; 0 turns\n"
      "                          request tracing off)\n"
      "      --max-input-bytes N per-document input size cap (default "
      "64MiB)\n"
      "      --max-depth N       element nesting cap (default 256)\n"
      "  client <host:port> <dir|filelist> [--concurrency N]\n"
      "                                    drive a serve instance; "
      "prints\n"
      "                                    batch-format output, retries "
      "429\n"
      "  loadgen <host:port> <file.xml | corpus_dir> [flags]\n"
      "                                    open-loop load test against "
      "a serve\n"
      "                                    instance (Poisson arrivals, "
      "latency\n"
      "                                    measured from the scheduled "
      "arrival\n"
      "                                    time - coordinated-omission "
      "safe)\n"
      "      --rps R             offered load, requests/second "
      "(default 20)\n"
      "      --duration-s S      test length (default 5)\n"
      "      --concurrency N     sender threads (default 32)\n"
      "      --deadline-ms D     X-Xsdf-Deadline-Ms on every request\n"
      "      --seed S            arrival-schedule seed (default 1)\n"
      "      --json FILE         write (or merge into) a JSON report\n"
      "      --label L           report key (default loadgen_<R>rps)\n"
      "env: XSDF_WNDB_DIR=<dir> loads a WNDB directory instead of the\n"
      "     bundled mini-WordNet\n");
  return 2;
}

/// Loads the semantic network on first use and caches it for the rest
/// of the process; returns nullptr (after printing the error) when
/// loading fails.
const SemanticNetwork* GetNetwork() {
  static xsdf::Result<SemanticNetwork> network = [] {
    const char* dir = std::getenv("XSDF_WNDB_DIR");
    if (dir != nullptr && dir[0] != '\0') {
      return xsdf::wordnet::ParseWndbDirectory(dir);
    }
    return xsdf::wordnet::BuildMiniWordNet();
  }();
  if (!network.ok()) {
    std::fprintf(stderr, "cannot load semantic network: %s\n",
                 network.status().ToString().c_str());
    return nullptr;
  }
  return &*network;
}

/// Parses all of `text` as a decimal int; false on an empty,
/// non-numeric or out-of-range value, or trailing characters.
bool ParseInt(const std::string& text, int* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Parses the integer value of a `--flag N` pair; false on a missing
/// value or one ParseInt() rejects.
bool ParseIntValue(const std::vector<std::string>& args, size_t* i,
                   int* out) {
  if (*i + 1 >= args.size()) return false;
  ++*i;
  return ParseInt(args[*i], out);
}

/// Parses the non-negative byte-count value of a `--flag N` pair
/// (sizes exceed int range for giant inputs); false on a missing,
/// non-numeric, or negative value.
bool ParseSizeValue(const std::vector<std::string>& args, size_t* i,
                    size_t* out) {
  if (*i + 1 >= args.size()) return false;
  ++*i;
  const std::string& text = args[*i];
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 0) return false;
  *out = static_cast<size_t>(value);
  return true;
}

/// Parses the value of a `--flag VALUE` pair; false when missing.
bool ParseStringValue(const std::vector<std::string>& args, size_t* i,
                      std::string* out) {
  if (*i + 1 >= args.size()) return false;
  ++*i;
  *out = args[*i];
  return !out->empty();
}

/// Parses the `--measures name:weight,...` value into `*out` through
/// MeasureConfig::Parse (which validates against the measure registry).
/// Any rejection — missing value, empty string, unknown name, negative
/// weight, duplicate name, weights not summing to 1 — prints the
/// reason and returns false, which the callers turn into a usage
/// error.
bool ParseMeasuresValue(const std::vector<std::string>& args, size_t* i,
                        xsdf::sim::MeasureConfig* out) {
  if (*i + 1 >= args.size()) {
    std::fprintf(stderr, "--measures needs a value\n");
    return false;
  }
  ++*i;
  auto config = xsdf::sim::MeasureConfig::Parse(args[*i]);
  if (!config.ok()) {
    std::fprintf(stderr, "--measures: %s\n",
                 config.status().ToString().c_str());
    return false;
  }
  *out = std::move(config).value();
  return true;
}

/// The bytes of the file at `path`, or IoError "cannot open file:
/// <path>" when it cannot be opened.
xsdf::Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return xsdf::Status::IoError("cannot open file: " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

int CmdDisambiguate(const SemanticNetwork& network, const char* path,
                    int radius) {
  auto xml = ReadTextFile(path);
  if (!xml.ok()) {
    std::fprintf(stderr, "%s\n", xml.status().ToString().c_str());
    return 1;
  }
  xsdf::core::DisambiguatorOptions options;
  options.sphere_radius = radius;
  xsdf::core::Disambiguator system(&network, options);
  auto result = system.RunOnXml(*xml);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", SemanticTreeToXml(*result, network).c_str());
  std::fprintf(stderr, "%zu nodes, %zu disambiguated\n",
               result->tree.size(), result->assignments.size());
  return 0;
}

/// Collects the batch inputs: every *.xml under a directory (sorted by
/// path for a deterministic job order), or the non-empty lines of a
/// file-list file.
bool CollectBatchInputs(const std::string& input,
                        std::vector<std::string>* paths) {
  std::error_code ec;
  if (fs::is_directory(input, ec)) {
    for (const auto& entry : fs::directory_iterator(input, ec)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() == ".xml") {
        paths->push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "cannot read directory %s: %s\n", input.c_str(),
                   ec.message().c_str());
      return false;
    }
    std::sort(paths->begin(), paths->end());
    return true;
  }
  std::ifstream list(input);
  if (!list) {
    std::fprintf(stderr, "cannot open %s\n", input.c_str());
    return false;
  }
  std::string line;
  while (std::getline(list, line)) {
    if (!line.empty()) paths->push_back(line);
  }
  return true;
}

int CmdBatch(const SemanticNetwork& network,
             const std::vector<std::string>& args) {
  std::string input;
  int threads = 4;
  int radius = 2;
  int passes = 1;
  bool no_cache = false;
  bool quiet = false;
  xsdf::xml::ParseLimits parse_limits;
  std::string metrics_out;
  std::string trace_out;
  xsdf::sim::MeasureConfig measures;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--threads") {
      if (!ParseIntValue(args, &i, &threads)) return Usage();
    } else if (arg == "--radius") {
      if (!ParseIntValue(args, &i, &radius)) return Usage();
    } else if (arg == "--passes") {
      if (!ParseIntValue(args, &i, &passes)) return Usage();
    } else if (arg == "--measures") {
      if (!ParseMeasuresValue(args, &i, &measures)) return Usage();
    } else if (arg == "--max-input-bytes") {
      if (!ParseSizeValue(args, &i, &parse_limits.max_input_bytes)) {
        return Usage();
      }
    } else if (arg == "--max-depth") {
      int depth = 0;
      if (!ParseIntValue(args, &i, &depth) || depth < 1) return Usage();
      parse_limits.max_depth = depth;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--metrics-out") {
      if (!ParseStringValue(args, &i, &metrics_out)) return Usage();
    } else if (arg == "--trace-out") {
      if (!ParseStringValue(args, &i, &trace_out)) return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (input.empty() || threads < 0 || passes < 1 || radius < 1) {
    return Usage();
  }

  std::vector<std::string> paths;
  if (!CollectBatchInputs(input, &paths)) return 1;
  if (paths.empty()) {
    std::fprintf(stderr, "no .xml inputs under %s\n", input.c_str());
    return 1;
  }

  std::vector<xsdf::runtime::DocumentJob> jobs;
  jobs.reserve(paths.size());
  for (const std::string& path : paths) {
    auto content = ReadTextFile(path);
    if (!content.ok()) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    jobs.push_back({0, path, std::move(content).value()});
  }

  // The sinks exist only when requested, so a plain batch run keeps
  // the instrumentation-free hot path (no clock reads, no recording).
  std::unique_ptr<xsdf::obs::MetricsRegistry> metrics;
  std::unique_ptr<xsdf::obs::TraceSession> trace;
  if (!metrics_out.empty()) {
    metrics = std::make_unique<xsdf::obs::MetricsRegistry>();
  }
  if (!trace_out.empty()) {
    trace = std::make_unique<xsdf::obs::TraceSession>();
  }

  xsdf::runtime::EngineOptions options;
  options.threads = threads;
  options.disambiguator.sphere_radius = radius;
  options.disambiguator.measure_config = measures;
  options.parse_limits = parse_limits;
  options.enable_similarity_cache = !no_cache;
  options.metrics = metrics.get();
  options.trace = trace.get();
  xsdf::runtime::DisambiguationEngine engine(&network, options);

  bool any_failed = false;
  for (int pass = 1; pass <= passes; ++pass) {
    engine.ResetCounters();  // per-pass stats; cache contents stay warm
    auto start = std::chrono::steady_clock::now();
    std::vector<xsdf::runtime::DocumentResult> results =
        engine.RunBatch(jobs);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (const auto& result : results) {
      if (!result.ok) {
        any_failed = true;
        std::fprintf(stderr, "%s: %s\n", result.name.c_str(),
                     result.error.c_str());
        continue;
      }
      if (!quiet) {
        std::printf("<!-- %s -->\n%s\n", result.name.c_str(),
                    result.semantic_xml.c_str());
      }
    }
    std::fprintf(
        stderr, "pass %d/%d: %zu docs in %.0f ms (%.1f docs/s) | %s\n",
        pass, passes, results.size(), seconds * 1e3,
        seconds > 0 ? static_cast<double>(results.size()) / seconds : 0.0,
        FormatEngineStats(engine.stats()).c_str());
  }

  // Export after the last pass: workers are idle (blocked on the
  // queue), so the trace snapshot sees a quiescent recording state.
  if (metrics != nullptr) {
    engine.PublishStatsToMetrics();
    if (!WriteTextFile(metrics_out, metrics->ToJson())) return 1;
    std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }
  if (trace != nullptr) {
    if (!WriteTextFile(trace_out, trace->ToJson())) return 1;
    std::fprintf(stderr, "trace (%zu events) written to %s\n",
                 trace->event_count(), trace_out.c_str());
  }
  return any_failed ? 1 : 0;
}

int CmdExplain(const SemanticNetwork& network,
               const std::vector<std::string>& args) {
  std::string file;
  std::string query;
  int radius = 2;
  xsdf::sim::MeasureConfig measures;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--radius") {
      if (!ParseIntValue(args, &i, &radius)) return Usage();
    } else if (arg == "--measures") {
      if (!ParseMeasuresValue(args, &i, &measures)) return Usage();
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else if (file.empty()) {
      file = arg;
    } else if (query.empty()) {
      query = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (file.empty() || query.empty() || radius < 1) return Usage();

  auto xml = ReadTextFile(file);
  if (!xml.ok()) {
    std::fprintf(stderr, "%s\n", xml.status().ToString().c_str());
    return 1;
  }
  // Same options as `xsdf batch` (the caches only move memoized values
  // around), so the audited choice reproduces the batch output exactly.
  // The tree interns its labels through the disambiguator's label
  // space, so every explained node reads its ids off the tree.
  xsdf::core::DisambiguatorOptions options;
  options.sphere_radius = radius;
  options.measure_config = measures;
  xsdf::core::Disambiguator system(&network, options);
  auto tree = xsdf::core::BuildTreeStreaming(
      *xml, network, xsdf::xml::ParseOptions{}, options.include_values,
      system.label_space());
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  std::vector<xsdf::xml::NodeId> matches =
      xsdf::core::ResolveNodeQuery(*tree, query);
  if (matches.empty()) {
    std::fprintf(stderr, "no node matches '%s' in %s\n", query.c_str(),
                 file.c_str());
    return 1;
  }

  xsdf::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("file");
  writer.Value(file);
  writer.Key("query");
  writer.Value(query);
  writer.Key("radius");
  writer.Value(radius);
  writer.Key("measures");
  writer.Value(options.EffectiveMeasureConfig().ToSpec());
  writer.Key("nodes");
  writer.BeginArray();
  size_t explained = 0;
  for (xsdf::xml::NodeId id : matches) {
    auto audit = system.ExplainNode(*tree, id);
    if (!audit.ok()) continue;  // senseless label: nothing to audit
    writer.BeginObject();
    AppendNodeAuditFields(&writer, *audit, network);
    writer.EndObject();
    ++explained;
  }
  writer.EndArray();
  writer.Key("matches");
  writer.Value(static_cast<uint64_t>(matches.size()));
  writer.Key("explained");
  writer.Value(static_cast<uint64_t>(explained));
  writer.EndObject();
  std::printf("%s\n", writer.str().c_str());
  if (explained == 0) {
    std::fprintf(stderr,
                 "%zu node(s) matched but none has candidate senses\n",
                 matches.size());
    return 1;
  }
  return 0;
}

int CmdGenCorpus(const std::vector<std::string>& args) {
  std::string dir;
  int seed = 42;
  int giant = 0;
  size_t target_bytes = 50u << 20;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--seed") {
      if (!ParseIntValue(args, &i, &seed)) return Usage();
    } else if (arg == "--giant") {
      if (!ParseIntValue(args, &i, &giant) || giant < 1) return Usage();
    } else if (arg == "--target-bytes") {
      if (!ParseSizeValue(args, &i, &target_bytes) || target_bytes == 0) {
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else if (dir.empty()) {
      dir = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (dir.empty()) return Usage();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  size_t written = 0;
  auto write_doc = [&](const xsdf::datasets::GeneratedDocument& doc) {
    fs::path path = fs::path(dir) / doc.name;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
      return false;
    }
    out << doc.xml;
    ++written;
    return true;
  };
  if (giant > 0) {
    // Giant mode replaces the example corpus.
    uintmax_t total = 0;
    for (const auto& doc : xsdf::datasets::GiantDocuments(
             giant, target_bytes, static_cast<uint64_t>(seed))) {
      total += doc.xml.size();
      if (!write_doc(doc)) return 1;
    }
    std::printf("%zu giant documents (%llu bytes) written to %s\n",
                written, static_cast<unsigned long long>(total),
                dir.c_str());
    return 0;
  }
  for (const auto* generator : xsdf::datasets::AllDatasets()) {
    for (const auto& doc :
         generator->Generate(static_cast<uint64_t>(seed))) {
      if (!write_doc(doc)) return 1;
    }
  }
  for (const auto& doc : xsdf::datasets::Figure1Documents()) {
    if (!write_doc(doc)) return 1;
  }
  std::printf("%zu documents written to %s\n", written, dir.c_str());
  return 0;
}

int CmdAmbiguity(const SemanticNetwork& network, const char* path) {
  auto xml = ReadTextFile(path);
  if (!xml.ok()) {
    std::fprintf(stderr, "%s\n", xml.status().ToString().c_str());
    return 1;
  }
  xsdf::core::LabelSpace label_space(&network);
  auto tree = xsdf::core::BuildTreeStreaming(*xml, network,
                                             xsdf::xml::ParseOptions{},
                                             /*include_values=*/true,
                                             &label_space);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  struct Row {
    xsdf::xml::NodeId id;
    double degree;
  };
  std::vector<Row> rows;
  for (xsdf::xml::NodeId id : tree->ids()) {
    rows.push_back({id, xsdf::core::AmbiguityDegree(
                            *tree, id,
                            label_space.Senses(tree->label_id(id)).polysemy)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.degree > b.degree; });
  std::printf("%-6s %-16s %-8s %-8s %s\n", "node", "label", "senses",
              "depth", "Amb_Deg");
  for (const Row& row : rows) {
    const std::string label(tree->label(row.id));
    std::printf("%-6d %-16s %-8d %-8d %.4f\n", row.id, label.c_str(),
                label_space.Senses(tree->label_id(row.id)).sense_count(),
                tree->depth(row.id), row.degree);
  }
  return 0;
}

int CmdQuery(const char* path, const char* query_text) {
  auto xml = ReadTextFile(path);
  if (!xml.ok()) {
    std::fprintf(stderr, "%s\n", xml.status().ToString().c_str());
    return 1;
  }
  auto query = xsdf::xml::PathQuery::Parse(query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  auto results = query->Evaluate(*xml);
  if (!results.ok()) {
    std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
    return 1;
  }
  for (const xsdf::xml::PathMatch& match : results->matches) {
    const std::string text(results->InnerText(match));
    std::printf("<%s> %s\n", match.name.c_str(), text.c_str());
  }
  std::fprintf(stderr, "%zu matches\n", results->matches.size());
  return 0;
}

int CmdExpand(const SemanticNetwork& network, const char* keyword,
              const char* path) {
  auto xml = ReadTextFile(path);
  if (!xml.ok()) {
    std::fprintf(stderr, "%s\n", xml.status().ToString().c_str());
    return 1;
  }
  xsdf::core::Disambiguator system(&network);
  auto result = system.RunOnXml(*xml);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::string lowered;
  for (const char* p = keyword; *p; ++p) {
    lowered.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  bool found = false;
  for (const auto& [id, assignment] : result->assignments) {
    if (result->tree.label(id) != lowered) continue;
    found = true;
    const auto& c = network.GetConcept(assignment.sense.primary);
    std::printf("sense in context: %s — %s\nexpansion:", c.label().c_str(),
                c.gloss.c_str());
    for (const std::string& synonym : c.synonyms) {
      if (synonym != lowered) std::printf(" %s", synonym.c_str());
    }
    for (const auto& edge : c.edges) {
      if (edge.relation == xsdf::wordnet::Relation::kHypernym) {
        std::printf(" %s",
                    network.GetConcept(edge.target).label().c_str());
      }
    }
    std::printf("\n");
    break;
  }
  if (!found) {
    std::fprintf(stderr, "keyword '%s' not found in document\n", keyword);
    return 1;
  }
  return 0;
}

int CmdNetworkStats(const SemanticNetwork& network) {
  std::printf("concepts:     %zu\n", network.size());
  std::printf("lemmas:       %zu\n", network.LemmaCount());
  std::printf("max polysemy: %d\n", network.MaxPolysemy());
  std::printf("max depth:    %d\n", network.MaxDepth());
  size_t edges = 0;
  int by_pos[4] = {0, 0, 0, 0};
  for (const auto& c : network.concepts()) {
    edges += c.edges.size();
    by_pos[static_cast<int>(c.pos)]++;
  }
  std::printf("edges:        %zu\n", edges);
  std::printf("nouns/verbs/adjs/advs: %d/%d/%d/%d\n", by_pos[0], by_pos[1],
              by_pos[2], by_pos[3]);
  return 0;
}

int CmdExportWndb(const SemanticNetwork& network, const char* dir) {
  auto status = xsdf::wordnet::WriteWndbToDirectory(network, dir);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("WNDB files written to %s\n", dir);
  return 0;
}

int CmdSnapshot(const SemanticNetwork& network,
                const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  const std::string& out = args[0];
  auto start = std::chrono::steady_clock::now();
  auto status = xsdf::snapshot::WriteNetworkSnapshotFile(network, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  std::error_code ec;
  uintmax_t bytes = fs::file_size(out, ec);
  std::fprintf(stderr,
               "snapshot written to %s: %zu concepts, %llu bytes, %.0f ms\n",
               out.c_str(), network.size(),
               static_cast<unsigned long long>(ec ? 0 : bytes), ms);
  return 0;
}

/// The serving process's shutdown hook: SIGTERM/SIGINT write one byte
/// to the server's wake pipe (async-signal-safe) and Run() drains.
xsdf::serve::Server* g_serve_instance = nullptr;

void ServeSignalHandler(int) {
  if (g_serve_instance != nullptr) g_serve_instance->RequestShutdown();
}

int CmdServe(const std::vector<std::string>& args) {
  xsdf::serve::ServeOptions options;
  std::string snapshot_path;
  int radius = 2;
  int threads = 4;
  int queue_capacity = 64;
  xsdf::sim::MeasureConfig measures;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--port") {
      if (!ParseIntValue(args, &i, &options.port)) return Usage();
    } else if (arg == "--host") {
      if (!ParseStringValue(args, &i, &options.host)) return Usage();
    } else if (arg == "--snapshot") {
      if (!ParseStringValue(args, &i, &snapshot_path)) return Usage();
    } else if (arg == "--threads") {
      if (!ParseIntValue(args, &i, &threads)) return Usage();
    } else if (arg == "--radius") {
      if (!ParseIntValue(args, &i, &radius)) return Usage();
    } else if (arg == "--measures") {
      if (!ParseMeasuresValue(args, &i, &measures)) return Usage();
    } else if (arg == "--queue-capacity") {
      if (!ParseIntValue(args, &i, &queue_capacity)) return Usage();
    } else if (arg == "--max-connections") {
      if (!ParseIntValue(args, &i, &options.max_connections)) return Usage();
    } else if (arg == "--no-admin") {
      options.enable_admin = false;
    } else if (arg == "--admin-snapshot-dir") {
      if (!ParseStringValue(args, &i, &options.admin_snapshot_dir)) {
        return Usage();
      }
    } else if (arg == "--admin-token") {
      if (!ParseStringValue(args, &i, &options.admin_token)) return Usage();
    } else if (arg == "--access-log") {
      if (!ParseStringValue(args, &i, &options.access_log_path)) {
        return Usage();
      }
    } else if (arg == "--slow-keep") {
      int keep = 0;
      if (!ParseIntValue(args, &i, &keep) || keep < 0) return Usage();
      options.slow_request_keep = static_cast<size_t>(keep);
    } else if (arg == "--max-input-bytes") {
      if (!ParseSizeValue(args, &i,
                          &options.engine.parse_limits.max_input_bytes)) {
        return Usage();
      }
    } else if (arg == "--max-depth") {
      int depth = 0;
      if (!ParseIntValue(args, &i, &depth) || depth < 1) return Usage();
      options.engine.parse_limits.max_depth = depth;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (options.port < 0 || options.port > 65535 || threads < 0 ||
      radius < 1 || queue_capacity < 1 || options.max_connections < 1) {
    return Usage();
  }
  if (threads == 0) {
    // Resolve auto-detection here (not just in the engine) so the
    // startup banner below reports the real pool size.
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
  }
  options.engine.threads = threads;
  options.engine.queue_capacity = static_cast<size_t>(queue_capacity);
  options.engine.disambiguator.sphere_radius = radius;
  options.engine.disambiguator.measure_config = measures;
  xsdf::obs::MetricsRegistry metrics;
  options.metrics = &metrics;

  // Resolve the lexicon: snapshot (mmap, fast) beats WNDB/mini (parse
  // + finalize). The snapshot keeps its backing file mapped for the
  // life of the serving state.
  std::shared_ptr<const SemanticNetwork> network;
  std::string lexicon_name;
  auto load_start = std::chrono::steady_clock::now();
  if (!snapshot_path.empty()) {
    auto loaded = xsdf::snapshot::LoadNetworkSnapshot(snapshot_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load snapshot: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    network = std::move(loaded).value();
    lexicon_name = snapshot_path;
  } else {
    const SemanticNetwork* built = GetNetwork();
    if (built == nullptr) return 1;
    network = std::shared_ptr<const SemanticNetwork>(built,
                                                     [](const auto*) {});
    const char* dir = std::getenv("XSDF_WNDB_DIR");
    lexicon_name = (dir != nullptr && dir[0] != '\0')
                       ? std::string("wndb:") + dir
                       : "mini-wordnet";
  }
  double load_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - load_start)
                       .count();

  xsdf::serve::Server server(options);
  auto installed = server.InstallLexicon(std::move(network), lexicon_name);
  if (!installed.ok()) {
    std::fprintf(stderr, "%s\n", installed.ToString().c_str());
    return 1;
  }
  auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }

  g_serve_instance = &server;
  std::signal(SIGTERM, ServeSignalHandler);
  std::signal(SIGINT, ServeSignalHandler);
  std::fprintf(stderr,
               "serving %s on %s:%d (%d workers, queue %d); lexicon "
               "ready in %.0f ms\n",
               lexicon_name.c_str(), options.host.c_str(), server.port(),
               threads, queue_capacity, load_ms);
  server.Run();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_serve_instance = nullptr;
  std::fprintf(stderr, "drained, shutting down\n");
  return 0;
}

/// SplitMix64 — the arrival-schedule PRNG (seeded, so two runs against
/// the same daemon offer the identical request timeline).
uint64_t LoadgenMix64(uint64_t* state) {
  uint64_t x = (*state += 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Exact nearest-rank percentile over a sorted sample vector.
uint64_t SamplePercentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(p * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

int CmdLoadgen(const std::vector<std::string>& args) {
  std::string endpoint;
  std::string input;
  int rps = 20;
  int duration_s = 5;
  int concurrency = 32;
  int deadline_ms = 0;
  int seed = 1;
  int timeout_ms = 60000;
  std::string json_out;
  std::string label;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--rps") {
      if (!ParseIntValue(args, &i, &rps)) return Usage();
    } else if (arg == "--duration-s") {
      if (!ParseIntValue(args, &i, &duration_s)) return Usage();
    } else if (arg == "--concurrency") {
      if (!ParseIntValue(args, &i, &concurrency)) return Usage();
    } else if (arg == "--deadline-ms") {
      if (!ParseIntValue(args, &i, &deadline_ms)) return Usage();
    } else if (arg == "--seed") {
      if (!ParseIntValue(args, &i, &seed)) return Usage();
    } else if (arg == "--timeout-ms") {
      if (!ParseIntValue(args, &i, &timeout_ms)) return Usage();
    } else if (arg == "--json") {
      if (!ParseStringValue(args, &i, &json_out)) return Usage();
    } else if (arg == "--label") {
      if (!ParseStringValue(args, &i, &label)) return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else if (endpoint.empty()) {
      endpoint = arg;
    } else if (input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  size_t colon = endpoint.rfind(':');
  if (endpoint.empty() || input.empty() || rps < 1 || duration_s < 1 ||
      concurrency < 1 || timeout_ms < 1 || colon == std::string::npos) {
    return Usage();
  }
  std::string host = endpoint.substr(0, colon);
  int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return Usage();
  if (label.empty()) label = "loadgen_" + std::to_string(rps) + "rps";

  // A file is sent as-is; a directory round-robins its .xml documents
  // across the schedule (same corpus convention as `xsdf client`).
  std::vector<std::string> bodies;
  std::vector<std::string> names;
  std::error_code ec;
  if (std::filesystem::is_directory(input, ec)) {
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(input)) {
      if (entry.is_regular_file() && entry.path().extension() == ".xml") {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
      bodies.push_back(ReadTextFile(path.string()).value_or(""));
      names.push_back(path.string());
    }
    if (bodies.empty()) {
      std::fprintf(stderr, "no .xml documents in %s\n", input.c_str());
      return 1;
    }
  } else {
    auto content = ReadTextFile(input);
    if (!content.ok()) {
      std::fprintf(stderr, "cannot open %s\n", input.c_str());
      return 1;
    }
    bodies.push_back(std::move(content).value());
    names.push_back(input);
  }

  // Open-loop Poisson schedule, precomputed: exponential inter-arrival
  // gaps at the offered rate, independent of how the server responds.
  // Senders never wait for a previous response before the next send is
  // due, and latency is measured from the *scheduled* arrival — a
  // stalled server inflates the recorded tail instead of silently
  // thinning the offered load (the coordinated-omission trap).
  std::vector<uint64_t> schedule_ns;
  {
    uint64_t prng = static_cast<uint64_t>(seed);
    const double horizon_s = static_cast<double>(duration_s);
    double t = 0.0;
    for (;;) {
      // Uniform in (0, 1]: top 53 bits, with 0 mapped away so log() is
      // finite.
      double u =
          (static_cast<double>(LoadgenMix64(&prng) >> 11) + 1.0) / 9007199254740993.0;
      t += -std::log(u) / static_cast<double>(rps);
      if (t >= horizon_s) break;
      schedule_ns.push_back(static_cast<uint64_t>(t * 1e9));
    }
  }
  if (schedule_ns.empty()) {
    std::fprintf(stderr, "empty schedule (rps too low for duration)\n");
    return 1;
  }

  struct SenderState {
    std::vector<uint64_t> latency_us;
    std::map<int, uint64_t> by_status;
    uint64_t errors = 0;
  };
  std::vector<SenderState> senders(static_cast<size_t>(concurrency));
  std::atomic<size_t> next{0};
  const auto test_start = std::chrono::steady_clock::now();
  auto sender = [&](SenderState* state) {
    for (;;) {
      size_t index = next.fetch_add(1);
      if (index >= schedule_ns.size()) return;
      const size_t doc = index % bodies.size();
      std::vector<std::pair<std::string, std::string>> headers = {
          {"X-Xsdf-Doc-Name", names[doc]}};
      if (deadline_ms > 0) {
        headers.emplace_back("X-Xsdf-Deadline-Ms",
                             std::to_string(deadline_ms));
      }
      const auto scheduled =
          test_start + std::chrono::nanoseconds(schedule_ns[index]);
      // Behind schedule (all senders busy): send immediately; the
      // queueing delay stays inside the recorded latency.
      std::this_thread::sleep_until(scheduled);
      auto response = xsdf::serve::HttpCall(host, port, "POST",
                                            "/disambiguate", headers,
                                            bodies[doc], timeout_ms);
      const auto done = std::chrono::steady_clock::now();
      if (!response.ok()) {
        ++state->errors;
        continue;
      }
      state->by_status[response->status]++;
      state->latency_us.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(done -
                                                                scheduled)
              .count()));
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(senders.size());
  for (SenderState& state : senders) {
    threads.emplace_back(sender, &state);
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    test_start)
          .count();

  std::vector<uint64_t> latencies;
  std::map<int, uint64_t> by_status;
  uint64_t errors = 0;
  for (const SenderState& state : senders) {
    latencies.insert(latencies.end(), state.latency_us.begin(),
                     state.latency_us.end());
    for (const auto& [status, count] : state.by_status) {
      by_status[status] += count;
    }
    errors += state.errors;
  }
  std::sort(latencies.begin(), latencies.end());
  uint64_t latency_sum = 0;
  for (uint64_t value : latencies) latency_sum += value;

  xsdf::obs::JsonWriter report;
  report.BeginObject();
  report.Key("target_rps").Value(rps);
  report.Key("duration_s").Value(duration_s);
  report.Key("concurrency").Value(concurrency);
  report.Key("seed").Value(seed);
  report.Key("offered").Value(static_cast<uint64_t>(schedule_ns.size()));
  report.Key("completed").Value(static_cast<uint64_t>(latencies.size()));
  report.Key("errors").Value(errors);
  report.Key("achieved_rps")
      .Value(wall_s > 0.0
                 ? static_cast<double>(latencies.size()) / wall_s
                 : 0.0);
  report.Key("coordinated_omission_safe").Value(true);
  report.Key("status");
  report.BeginObject();
  for (const auto& [status, count] : by_status) {
    report.Key(std::to_string(status)).Value(count);
  }
  report.EndObject();
  report.Key("latency_us");
  report.BeginObject();
  report.Key("count").Value(static_cast<uint64_t>(latencies.size()));
  report.Key("min").Value(latencies.empty() ? 0 : latencies.front());
  report.Key("p50").Value(SamplePercentile(latencies, 0.50));
  report.Key("p90").Value(SamplePercentile(latencies, 0.90));
  report.Key("p99").Value(SamplePercentile(latencies, 0.99));
  report.Key("p999").Value(SamplePercentile(latencies, 0.999));
  report.Key("max").Value(latencies.empty() ? 0 : latencies.back());
  report.Key("mean").Value(
      latencies.empty()
          ? 0.0
          : static_cast<double>(latency_sum) /
                static_cast<double>(latencies.size()));
  report.EndObject();
  report.EndObject();

  std::fprintf(
      stderr,
      "%s: offered %zu @ %d rps, completed %zu (%llu errors) | "
      "p50 %llu us, p99 %llu us, max %llu us\n",
      label.c_str(), schedule_ns.size(), rps, latencies.size(),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(SamplePercentile(latencies, 0.50)),
      static_cast<unsigned long long>(SamplePercentile(latencies, 0.99)),
      static_cast<unsigned long long>(
          latencies.empty() ? 0 : latencies.back()));
  for (const auto& [status, count] : by_status) {
    std::fprintf(stderr, "  HTTP %d: %llu\n", status,
                 static_cast<unsigned long long>(count));
  }

  if (!json_out.empty()) {
    // Merge into an existing JSON object file (e.g. BENCH_serve.json,
    // whose writer we control) by replacing its final '}' with our
    // keyed section; otherwise write a fresh single-key object.
    std::string existing = ReadTextFile(json_out).value_or("");
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' ')) {
      existing.pop_back();
    }
    std::string merged;
    if (!existing.empty() && existing.back() == '}' && existing != "{}") {
      existing.pop_back();
      merged = existing + ",\n  \"" + label + "\": " + report.str() + "\n}\n";
    } else {
      merged = "{\n  \"" + label + "\": " + report.str() + "\n}\n";
    }
    if (!WriteTextFile(json_out, merged)) return 1;
    std::fprintf(stderr, "report merged into %s as \"%s\"\n",
                 json_out.c_str(), label.c_str());
  } else {
    std::printf("%s\n", report.str().c_str());
  }
  return errors == schedule_ns.size() ? 1 : 0;
}

int CmdClient(const std::vector<std::string>& args) {
  std::string endpoint;
  std::string input;
  int concurrency = 4;
  int deadline_ms = 0;
  int max_retries = 200;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--concurrency") {
      if (!ParseIntValue(args, &i, &concurrency)) return Usage();
    } else if (arg == "--deadline-ms") {
      if (!ParseIntValue(args, &i, &deadline_ms)) return Usage();
    } else if (arg == "--retries") {
      if (!ParseIntValue(args, &i, &max_retries)) return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else if (endpoint.empty()) {
      endpoint = arg;
    } else if (input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  size_t colon = endpoint.rfind(':');
  if (endpoint.empty() || input.empty() || concurrency < 1 ||
      colon == std::string::npos) {
    return Usage();
  }
  std::string host = endpoint.substr(0, colon);
  int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return Usage();

  std::vector<std::string> paths;
  if (!CollectBatchInputs(input, &paths)) return 1;
  if (paths.empty()) {
    std::fprintf(stderr, "no .xml inputs under %s\n", input.c_str());
    return 1;
  }

  // Responses indexed by job position, printed afterwards in input
  // order: the output is byte-comparable with `xsdf batch` over the
  // same corpus (the CI smoke job diffs exactly that).
  std::vector<std::string> bodies(paths.size());
  std::vector<std::string> errors(paths.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> retries_total{0};
  auto worker = [&] {
    for (;;) {
      size_t index = next.fetch_add(1);
      if (index >= paths.size()) return;
      auto content = ReadTextFile(paths[index]);
      if (!content.ok()) {
        errors[index] = "cannot open file";
        continue;
      }
      std::vector<std::pair<std::string, std::string>> headers = {
          {"X-Xsdf-Doc-Name", paths[index]}};
      if (deadline_ms > 0) {
        headers.emplace_back("X-Xsdf-Deadline-Ms",
                             std::to_string(deadline_ms));
      }
      int attempts = 0;
      for (;;) {
        auto response = xsdf::serve::HttpCall(host, port, "POST",
                                              "/disambiguate", headers,
                                              *content, 60000);
        if (!response.ok()) {
          errors[index] = response.status().ToString();
          break;
        }
        if (response->status == 200) {
          bodies[index] = std::move(response->body);
          break;
        }
        if ((response->status == 429 || response->status == 503) &&
            attempts < max_retries) {
          // Overload is the server keeping its promise; back off and
          // retry until admitted.
          ++attempts;
          retries_total.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        errors[index] =
            "HTTP " + std::to_string(response->status) + ": " +
            response->body;
        break;
      }
    }
  };
  std::vector<std::thread> workers;
  for (int i = 0; i < concurrency; ++i) workers.emplace_back(worker);
  for (std::thread& w : workers) w.join();

  bool any_failed = false;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!errors[i].empty()) {
      any_failed = true;
      std::fprintf(stderr, "%s: %s\n", paths[i].c_str(), errors[i].c_str());
      continue;
    }
    std::printf("<!-- %s -->\n%s\n", paths[i].c_str(), bodies[i].c_str());
  }
  std::fprintf(stderr, "%zu docs via %s:%d (%d connections, %llu retries)\n",
               paths.size(), host.c_str(), port, concurrency,
               static_cast<unsigned long long>(retries_total.load()));
  return any_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> rest(argv + 2, argv + argc);

  // Commands that do not touch the semantic network.
  if (command == "query") {
    if (rest.size() != 2) return Usage();
    return CmdQuery(rest[0].c_str(), rest[1].c_str());
  }
  if (command == "gen-corpus") {
    return CmdGenCorpus(rest);
  }

  const SemanticNetwork* network = nullptr;
  auto require_network = [&]() -> const SemanticNetwork* {
    if (network == nullptr) network = GetNetwork();
    return network;
  };

  if (command == "disambiguate") {
    if (rest.empty() || rest.size() > 2) return Usage();
    int radius = 2;
    if (rest.size() == 2 && (!ParseInt(rest[1], &radius) || radius < 1)) {
      return Usage();
    }
    if (require_network() == nullptr) return 1;
    return CmdDisambiguate(*network, rest[0].c_str(), radius);
  }
  if (command == "batch") {
    if (require_network() == nullptr) return 1;
    return CmdBatch(*network, rest);
  }
  if (command == "explain") {
    if (require_network() == nullptr) return 1;
    return CmdExplain(*network, rest);
  }
  if (command == "ambiguity") {
    if (rest.size() != 1) return Usage();
    if (require_network() == nullptr) return 1;
    return CmdAmbiguity(*network, rest[0].c_str());
  }
  if (command == "expand") {
    if (rest.size() != 2) return Usage();
    if (require_network() == nullptr) return 1;
    return CmdExpand(*network, rest[0].c_str(), rest[1].c_str());
  }
  if (command == "network-stats") {
    if (!rest.empty()) return Usage();
    if (require_network() == nullptr) return 1;
    return CmdNetworkStats(*network);
  }
  if (command == "export-wndb") {
    if (rest.size() != 1) return Usage();
    if (require_network() == nullptr) return 1;
    return CmdExportWndb(*network, rest[0].c_str());
  }
  if (command == "snapshot") {
    if (require_network() == nullptr) return 1;
    return CmdSnapshot(*network, rest);
  }
  if (command == "serve") {
    return CmdServe(rest);
  }
  if (command == "client") {
    return CmdClient(rest);
  }
  if (command == "loadgen") {
    return CmdLoadgen(rest);
  }
  return Usage();
}
