// Serve subsystem tests: the HTTP front end answers byte-identically
// to the engine, sheds load with 429/504 instead of blocking, and hot
// lexicon swaps never mix generations within a response.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/generator.h"
#include "oracles/dom.h"
#include "runtime/engine.h"
#include "serve/http.h"
#include "serve/server.h"
#include "sim/measure_config.h"
#include "snapshot/snapshot.h"
#include "wordnet/mini_wordnet.h"
#include "wordnet/semantic_network.h"
#include "xml/parser.h"

namespace xsdf {
namespace {

using serve::ClientResponse;
using serve::HttpCall;
using serve::ServeOptions;
using serve::Server;
using wordnet::ConceptId;
using wordnet::PartOfSpeech;
using wordnet::Relation;
using wordnet::SemanticNetwork;

constexpr const char* kHost = "127.0.0.1";
constexpr int kClientTimeoutMs = 30000;

/// A tiny entity -> animal -> {cat, dog} taxonomy. `shift` prepends
/// dummy concepts, shifting every real concept id — two networks built
/// with different shifts produce different concept_id attributes for
/// the same document, which is how the swap test tells generations
/// apart by body alone.
std::shared_ptr<const SemanticNetwork> BuildTinyTaxonomy(int shift) {
  auto network = std::make_shared<SemanticNetwork>();
  for (int i = 0; i < shift; ++i) {
    network->AddConcept(PartOfSpeech::kNoun, {"padding_" + std::to_string(i)},
                        "filler concept to shift ids");
  }
  ConceptId entity = network->AddConcept(PartOfSpeech::kNoun, {"entity"},
                                         "that which is perceived");
  ConceptId animal = network->AddConcept(
      PartOfSpeech::kNoun, {"animal", "beast"}, "a living organism");
  ConceptId cat = network->AddConcept(PartOfSpeech::kNoun, {"cat", "feline"},
                                      "a small domesticated mammal");
  ConceptId dog = network->AddConcept(PartOfSpeech::kNoun, {"dog", "canine"},
                                      "a domesticated carnivorous mammal");
  network->AddEdge(animal, Relation::kHypernym, entity);
  network->AddEdge(cat, Relation::kHypernym, animal);
  network->AddEdge(dog, Relation::kHypernym, animal);
  network->SetFrequency(entity, 10.0);
  network->SetFrequency(animal, 6.0);
  network->SetFrequency(cat, 3.0);
  network->SetFrequency(dog, 2.0);
  network->FinalizeFrequencies();
  return network;
}

std::shared_ptr<const SemanticNetwork> MiniNetwork() {
  Result<SemanticNetwork> result = wordnet::BuildMiniWordNet();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::make_shared<SemanticNetwork>(std::move(result).value());
}

/// Runs `server` on a background thread for the scope of a test.
class ServerRunner {
 public:
  explicit ServerRunner(Server* server) : server_(server) {
    thread_ = std::thread([this] { server_->Run(); });
  }
  ~ServerRunner() {
    server_->RequestShutdown();
    thread_.join();
  }

 private:
  Server* server_;
  std::thread thread_;
};

std::string EngineAnswer(const SemanticNetwork& network,
                         const std::string& xml) {
  runtime::EngineOptions options;
  options.threads = 1;
  runtime::DisambiguationEngine engine(&network, options);
  std::vector<runtime::DocumentResult> results =
      engine.RunBatch({{0, "request", xml}});
  EXPECT_TRUE(results[0].ok) << results[0].error;
  return results[0].semantic_xml;
}

TEST(ServeTest, DisambiguateMatchesEngineByteForByte) {
  auto network = MiniNetwork();
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 2;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  const std::string xml =
      "<patient><name>rex</name><condition>rabies</condition>"
      "<doctor>smith</doctor></patient>";
  auto response = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                           {}, xml, kClientTimeoutMs);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, EngineAnswer(*network, xml));
  EXPECT_EQ(response->headers.at("x-xsdf-generation"), "1");
  EXPECT_EQ(response->headers.at("x-xsdf-lexicon"), "mini");
}

TEST(ServeTest, RejectsBadInputAndUnknownRoutes) {
  auto network = BuildTinyTaxonomy(0);
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "tiny").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto bad_xml = HttpCall(kHost, server.port(), "POST", "/disambiguate", {},
                          "<unclosed>", kClientTimeoutMs);
  ASSERT_TRUE(bad_xml.ok()) << bad_xml.status().ToString();
  EXPECT_EQ(bad_xml->status, 400);

  auto wrong_method = HttpCall(kHost, server.port(), "GET", "/disambiguate",
                               {}, "", kClientTimeoutMs);
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  auto unknown = HttpCall(kHost, server.port(), "GET", "/nope", {}, "",
                          kClientTimeoutMs);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  auto health = HttpCall(kHost, server.port(), "GET", "/healthz", {}, "",
                         kClientTimeoutMs);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
}

TEST(ServeTest, DeadlineAlreadyExpiredReturns504) {
  auto network = BuildTinyTaxonomy(0);
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "tiny").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto response = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                           {{"X-Xsdf-Deadline-Ms", "0"}},
                           "<animal><cat/></animal>", kClientTimeoutMs);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504);
}

TEST(ServeTest, HugeDeadlineBudgetMeansNoPracticalDeadline) {
  auto network = BuildTinyTaxonomy(0);
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "tiny").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  // 584 years: budget * 1e6 ns must saturate instead of wrapping the
  // deadline into the past; so must a budget past int64_t.
  for (const char* budget : {"18446744073709", "99999999999999999999999"}) {
    auto response = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                             {{"X-Xsdf-Deadline-Ms", budget}},
                             "<animal><cat/></animal>", kClientTimeoutMs);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200) << budget;
  }
}

TEST(ServeTest, MalformedDeadlineHeaderIs400) {
  auto network = BuildTinyTaxonomy(0);
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "tiny").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  for (const char* budget : {"abc", "10ms", "1.5", "+5", "-"}) {
    auto response = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                             {{"X-Xsdf-Deadline-Ms", budget}},
                             "<animal><cat/></animal>", kClientTimeoutMs);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 400) << budget;
  }
  // Zero and negative budgets keep their deterministic 504.
  auto expired = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                          {{"X-Xsdf-Deadline-Ms", "-5"}},
                          "<animal><cat/></animal>", kClientTimeoutMs);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired->status, 504);
}

TEST(ServeTest, OverloadShedsWith429) {
  auto network = MiniNetwork();
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.engine.queue_capacity = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  // A chunky document so the single worker stays busy while the other
  // clients arrive. With capacity 1 at most two requests are in the
  // system; the rest must be rejected, never blocked.
  std::string xml = "<hospital>";
  for (int i = 0; i < 12; ++i) {
    xml += "<patient><condition>cold</condition><doctor>head</doctor>"
           "<bank>blood</bank></patient>";
  }
  xml += "</hospital>";

  std::atomic<int> ok_count{0};
  std::atomic<int> rejected_count{0};
  std::atomic<int> other_count{0};
  for (int round = 0; round < 5 && rejected_count.load() == 0; ++round) {
    std::vector<std::thread> clients;
    for (int i = 0; i < 8; ++i) {
      clients.emplace_back([&] {
        auto response = HttpCall(kHost, server.port(), "POST",
                                 "/disambiguate", {}, xml, kClientTimeoutMs);
        if (!response.ok()) {
          ++other_count;
        } else if (response->status == 200) {
          ++ok_count;
        } else if (response->status == 429) {
          ++rejected_count;
        } else {
          ++other_count;
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GT(rejected_count.load(), 0)
      << "no request was shed across 5 rounds of 8 concurrent clients";
}

TEST(ServeTest, MetricsAndStatsEndpoints) {
  auto network = MiniNetwork();
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.metrics = &registry;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto doc = HttpCall(kHost, server.port(), "POST", "/disambiguate", {},
                      "<animal><cat/></animal>", kClientTimeoutMs);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->status, 200);

  auto metrics = HttpCall(kHost, server.port(), "GET", "/metrics", {}, "",
                          kClientTimeoutMs);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("engine.documents"), std::string::npos);
  EXPECT_NE(metrics->body.find("stage.parse_us"), std::string::npos);
  EXPECT_NE(metrics->body.find("serve.requests"), std::string::npos);

  auto stats = HttpCall(kHost, server.port(), "GET", "/stats", {}, "",
                        kClientTimeoutMs);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"generation\""), std::string::npos);
}

TEST(ServeTest, ExplainReturnsAuditJson) {
  auto network = MiniNetwork();
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto response = HttpCall(
      kHost, server.port(), "POST", "/explain?node=condition", {},
      "<patient><condition>rabies</condition><doctor>smith</doctor>"
      "</patient>",
      kClientTimeoutMs);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"query\""), std::string::npos);
  EXPECT_NE(response->body.find("\"nodes\""), std::string::npos);

  auto missing = HttpCall(kHost, server.port(), "POST", "/explain", {},
                          "<a/>", kClientTimeoutMs);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
}

TEST(ServeTest, ExplainNodeIdPastTheTreeIsNotFound) {
  auto network = MiniNetwork();
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  // 2^32 and 2^32 + 1 used to wrap onto the root and node 1.
  const std::string xml = datasets::Figure1Documents()[0].xml;
  for (const char* node : {"4294967296", "4294967297", "99999"}) {
    auto response =
        HttpCall(kHost, server.port(), "POST",
                 std::string("/explain?node=") + node, {}, xml,
                 kClientTimeoutMs);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 404) << node << ": " << response->body;
  }
}

/// `<cast>` nested `depth` elements deep around one `<star>` leaf.
std::string NestedCast(int depth) {
  std::string xml;
  for (int d = 1; d < depth; ++d) xml += "<cast>";
  xml += "<star>Kelly</star>";
  for (int d = 1; d < depth; ++d) xml += "</cast>";
  return xml;
}

/// POSTs `xml` to /disambiguate and to /explain?node=star on a daemon
/// parsing under `limits`, and returns the two responses.
std::pair<ClientResponse, ClientResponse> DisambiguateAndExplain(
    const xml::ParseLimits& limits, const std::string& xml) {
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.engine.parse_limits = limits;
  Server server(options);
  EXPECT_TRUE(server.InstallLexicon(MiniNetwork(), "mini").ok());
  EXPECT_TRUE(server.Start().ok());
  ServerRunner runner(&server);
  auto disambiguated = HttpCall(kHost, server.port(), "POST",
                                "/disambiguate", {}, xml, kClientTimeoutMs);
  auto explained = HttpCall(kHost, server.port(), "POST",
                            "/explain?node=star", {}, xml, kClientTimeoutMs);
  EXPECT_TRUE(disambiguated.ok()) << disambiguated.status().ToString();
  EXPECT_TRUE(explained.ok()) << explained.status().ToString();
  if (!disambiguated.ok() || !explained.ok()) return {};
  return {std::move(disambiguated).value(), std::move(explained).value()};
}

// /explain parses under the daemon's limits, as /disambiguate does: a
// lowered max_depth rejects a document the default cap accepts.
TEST(ServeTest, ExplainAppliesALoweredMaxDepth) {
  xml::ParseLimits limits;
  limits.max_depth = 8;
  auto [disambiguated, explained] =
      DisambiguateAndExplain(limits, NestedCast(20));
  EXPECT_EQ(disambiguated.status, 400);
  EXPECT_EQ(explained.status, 400) << explained.body;
  EXPECT_NE(disambiguated.body.find("max_depth (8)"), std::string::npos)
      << disambiguated.body;
  EXPECT_EQ(explained.body, disambiguated.body);
}

// A raised max_depth accepts a document the default cap (256) rejects,
// on both endpoints.
TEST(ServeTest, ExplainAppliesARaisedMaxDepth) {
  xml::ParseLimits limits;
  limits.max_depth = 600;
  auto [disambiguated, explained] =
      DisambiguateAndExplain(limits, NestedCast(300));
  EXPECT_EQ(disambiguated.status, 200) << disambiguated.body;
  EXPECT_EQ(explained.status, 200) << explained.body;
  EXPECT_NE(explained.body.find("\"chosen\""), std::string::npos)
      << explained.body;
}

// An input over max_input_bytes is refused by both endpoints before
// its body is read, with the limit named as the parser names it.
TEST(ServeTest, ExplainAppliesMaxInputBytes) {
  xml::ParseLimits limits;
  limits.max_input_bytes = 64;
  const std::string xml = NestedCast(10);
  ASSERT_GT(xml.size(), 64u);
  auto [disambiguated, explained] = DisambiguateAndExplain(limits, xml);
  EXPECT_EQ(disambiguated.status, 413);
  EXPECT_EQ(explained.status, 413) << explained.body;
  EXPECT_NE(disambiguated.body.find("max_input_bytes (64)"),
            std::string::npos)
      << disambiguated.body;
  EXPECT_EQ(explained.body, disambiguated.body);
}

// A raised max_input_bytes raises the body cap with it: a 9 MiB body
// under a 16 MiB cap is read whole and reaches the engine, which sheds
// it on its expired deadline before parsing it.
TEST(ServeTest, RaisedMaxInputBytesAdmitsALargeBody) {
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.engine.parse_limits.max_input_bytes = 16u << 20;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(BuildTinyTaxonomy(0), "tiny").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  std::string xml = "<animal>";
  xml.append((9u << 20) - 2 * xml.size() - 1, 'a');
  xml += "</animal>";
  ASSERT_GT(xml.size(), 8u << 20);
  auto response = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                           {{"X-Xsdf-Deadline-Ms", "0"}}, xml,
                           kClientTimeoutMs);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504) << response->body;
}

/// The concept_id of every <node> element of a /disambiguate body, in
/// document order — which is labeled-tree node id order — with -1 for a
/// node that carries no concept.
std::vector<int64_t> ConceptIdsInNodeOrder(const std::string& semantic_xml) {
  std::vector<int64_t> ids;
  auto doc = oracles::ParseDom(semantic_xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  if (!doc.ok()) return ids;
  std::vector<const oracles::Node*> stack = {doc->root()};
  while (!stack.empty()) {
    const oracles::Node* node = stack.back();
    stack.pop_back();
    if (node->name() == "node") {
      const std::string* concept_id = node->FindAttribute("concept_id");
      ids.push_back(concept_id == nullptr ? -1 : std::stoll(*concept_id));
    }
    const std::vector<oracles::Node*>& children = node->children();
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      if ((*it)->is_element()) stack.push_back(*it);
    }
  }
  return ids;
}

/// The chosen concept id of the (single) node an /explain body audits,
/// or -1 when it explained none.
int64_t ChosenConceptId(const std::string& explain_json) {
  const std::string key = "\"chosen\":{\"concept_id\":";
  const size_t at = explain_json.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(explain_json.substr(at + key.size()));
}

// /explain runs the code /disambiguate runs: for every node of the
// Figure-1 document, the sense /explain?node=<id> chooses is the
// concept /disambiguate assigns that node in the same body (and a
// senseless node gets neither).
TEST(ServeTest, ExplainChoiceMatchesDisambiguateForEveryNode) {
  auto network = MiniNetwork();
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 2;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  const std::string xml = datasets::Figure1Documents()[0].xml;
  auto disambiguated = HttpCall(kHost, server.port(), "POST",
                                "/disambiguate", {}, xml, kClientTimeoutMs);
  ASSERT_TRUE(disambiguated.ok()) << disambiguated.status().ToString();
  ASSERT_EQ(disambiguated->status, 200);
  const std::vector<int64_t> assigned =
      ConceptIdsInNodeOrder(disambiguated->body);
  ASSERT_GT(assigned.size(), 5u);
  size_t with_concept = 0;
  for (size_t id = 0; id < assigned.size(); ++id) {
    auto explained =
        HttpCall(kHost, server.port(), "POST",
                 "/explain?node=" + std::to_string(id), {}, xml,
                 kClientTimeoutMs);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    ASSERT_EQ(explained->status, 200) << "node " << id;
    EXPECT_EQ(ChosenConceptId(explained->body), assigned[id])
        << "node " << id << ": " << explained->body;
    if (assigned[id] >= 0) ++with_concept;
  }
  EXPECT_GT(with_concept, 3u);
}

/// Hot swap under concurrent load: every response must match the
/// expected output of exactly the generation named in its header —
/// zero dropped requests, zero mixed-lexicon responses.
TEST(ServeTest, HotSwapUnderLoadNeverMixesLexicons) {
  auto network_a = BuildTinyTaxonomy(0);
  auto network_b = BuildTinyTaxonomy(3);
  const std::string xml =
      "<animal><cat><head>round</head></cat><dog><tail>long</tail></dog>"
      "</animal>";
  const std::string expected_a = EngineAnswer(*network_a, xml);
  const std::string expected_b = EngineAnswer(*network_b, xml);
  ASSERT_NE(expected_a, expected_b)
      << "id shift failed to change the serialized output";

  ServeOptions options;
  options.port = 0;
  options.engine.threads = 2;
  options.engine.queue_capacity = 64;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network_a, "lexicon-a").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  std::atomic<bool> done{false};
  std::atomic<int> mixed{0};
  std::atomic<int> failed{0};
  std::atomic<int> served_a{0};
  std::atomic<int> served_b{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto response = HttpCall(kHost, server.port(), "POST",
                                 "/disambiguate", {}, xml, kClientTimeoutMs);
        if (!response.ok() || response->status != 200) {
          ++failed;
          continue;
        }
        const std::string& generation =
            response->headers.at("x-xsdf-generation");
        if (generation == "1") {
          if (response->body != expected_a) ++mixed;
          ++served_a;
        } else if (generation == "2") {
          if (response->body != expected_b) ++mixed;
          ++served_b;
        } else {
          ++mixed;
        }
      }
    });
  }

  // Let generation 1 serve some traffic, swap, let generation 2 serve.
  while (served_a.load() < 8) std::this_thread::yield();
  ASSERT_TRUE(server.InstallLexicon(network_b, "lexicon-b").ok());
  EXPECT_EQ(server.generation(), 2u);
  while (served_b.load() < 8) std::this_thread::yield();
  done.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(mixed.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(served_a.load(), 8);
  EXPECT_GE(served_b.load(), 8);
}

TEST(ServeTest, AdminSwapLoadsSnapshotFile) {
  auto network_a = BuildTinyTaxonomy(0);
  auto network_b = BuildTinyTaxonomy(3);
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "xsdf_serve_swap.snap";
  ASSERT_TRUE(
      snapshot::WriteNetworkSnapshotFile(*network_b, path.string()).ok());

  const std::string xml = "<animal><cat/><dog/></animal>";
  const std::string expected_b = EngineAnswer(*network_b, xml);

  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network_a, "tiny-a").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto swap = HttpCall(kHost, server.port(), "POST",
                       "/admin/swap?snapshot=" + path.string(), {}, "",
                       kClientTimeoutMs);
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  EXPECT_EQ(swap->status, 200);
  EXPECT_NE(swap->body.find("\"generation\": 2"), std::string::npos);

  auto response = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                           {}, xml, kClientTimeoutMs);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, expected_b);
  EXPECT_EQ(response->headers.at("x-xsdf-generation"), "2");

  auto missing = HttpCall(kHost, server.port(), "POST",
                          "/admin/swap?snapshot=/no/such/file.snap", {}, "",
                          kClientTimeoutMs);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
  // Loader detail stays in the server log; the client only learns the
  // load failed, not why (no filesystem probing oracle).
  EXPECT_EQ(missing->body, "cannot load snapshot\n");
  std::filesystem::remove(path);
}

TEST(ServeTest, AdminSwapEnforcesTokenAndSnapshotDirectory) {
  auto network_a = BuildTinyTaxonomy(0);
  auto network_b = BuildTinyTaxonomy(3);
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "xsdf_serve_admin_dir";
  std::filesystem::create_directories(dir);
  std::filesystem::path inside = dir / "inside.snap";
  std::filesystem::path outside =
      std::filesystem::temp_directory_path() / "xsdf_serve_outside.snap";
  ASSERT_TRUE(
      snapshot::WriteNetworkSnapshotFile(*network_b, inside.string()).ok());
  ASSERT_TRUE(
      snapshot::WriteNetworkSnapshotFile(*network_b, outside.string()).ok());

  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.admin_snapshot_dir = dir.string();
  options.admin_token = "sesame";
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network_a, "tiny-a").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto no_token =
      HttpCall(kHost, server.port(), "POST",
               "/admin/swap?snapshot=" + inside.string(), {}, "",
               kClientTimeoutMs);
  ASSERT_TRUE(no_token.ok()) << no_token.status().ToString();
  EXPECT_EQ(no_token->status, 403);

  const std::vector<std::pair<std::string, std::string>> auth = {
      {"X-Xsdf-Admin-Token", "sesame"}};
  auto escape =
      HttpCall(kHost, server.port(), "POST",
               "/admin/swap?snapshot=" + outside.string(), auth, "",
               kClientTimeoutMs);
  ASSERT_TRUE(escape.ok());
  EXPECT_EQ(escape->status, 403);

  auto traversal = HttpCall(
      kHost, server.port(), "POST",
      "/admin/swap?snapshot=" +
          (dir / ".." / "xsdf_serve_outside.snap").string(),
      auth, "", kClientTimeoutMs);
  ASSERT_TRUE(traversal.ok());
  EXPECT_EQ(traversal->status, 403);
  EXPECT_EQ(server.generation(), 1u);

  auto swap = HttpCall(kHost, server.port(), "POST",
                       "/admin/swap?snapshot=" + inside.string(), auth, "",
                       kClientTimeoutMs);
  ASSERT_TRUE(swap.ok());
  EXPECT_EQ(swap->status, 200);
  EXPECT_EQ(server.generation(), 2u);

  std::filesystem::remove_all(dir);
  std::filesystem::remove(outside);
}

TEST(ServeTest, RequestIdIsEchoedOrGenerated) {
  auto network = BuildTinyTaxonomy(0);
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "tiny").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  // A well-formed client id (16 hex digits) is honored verbatim.
  auto supplied = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                           {{"X-Xsdf-Request-Id", "00000000deadbeef"}},
                           "<animal><cat/></animal>", kClientTimeoutMs);
  ASSERT_TRUE(supplied.ok()) << supplied.status().ToString();
  EXPECT_EQ(supplied->headers.at("x-xsdf-request-id"), "00000000deadbeef");

  // A malformed id is replaced, and ids without one are generated:
  // 16 hex digits, distinct across requests.
  auto is_hex16 = [](const std::string& id) {
    if (id.size() != 16) return false;
    for (char c : id) {
      if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
    }
    return true;
  };
  auto malformed = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                            {{"X-Xsdf-Request-Id", "not-hex"}},
                            "<animal><cat/></animal>", kClientTimeoutMs);
  ASSERT_TRUE(malformed.ok());
  const std::string id_a = malformed->headers.at("x-xsdf-request-id");
  EXPECT_TRUE(is_hex16(id_a)) << id_a;
  EXPECT_NE(id_a, "not-hex");

  auto generated = HttpCall(kHost, server.port(), "GET", "/healthz", {}, "",
                            kClientTimeoutMs);
  ASSERT_TRUE(generated.ok());
  const std::string id_b = generated->headers.at("x-xsdf-request-id");
  EXPECT_TRUE(is_hex16(id_b)) << id_b;
  EXPECT_NE(id_a, id_b);
}

/// Polls `path` until it holds at least `lines` newline-terminated
/// lines (the access-log writer runs asynchronously) and returns them.
std::vector<std::string> WaitForLogLines(const std::string& path,
                                         size_t lines) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) out.push_back(line);
    }
    if (out.size() >= lines) return out;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return {};
}

TEST(ServeTest, AccessLogRecordsEveryStatusWithFullSchema) {
  auto network = MiniNetwork();
  std::filesystem::path log_path =
      std::filesystem::temp_directory_path() / "xsdf_serve_access_test.jsonl";
  std::filesystem::remove(log_path);

  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.access_log_path = log_path.string();
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  {
    ServerRunner runner(&server);
    auto ok = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                       {{"X-Xsdf-Request-Id", "00000000000cafe5"}},
                       "<animal><cat/></animal>", kClientTimeoutMs);
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok->status, 200);
    auto bad = HttpCall(kHost, server.port(), "POST", "/disambiguate", {},
                        "<unclosed>", kClientTimeoutMs);
    ASSERT_TRUE(bad.ok());
    ASSERT_EQ(bad->status, 400);
    // Deadline already expired: shed by the worker, still logged (the
    // whole point of S-class logging — rejected traffic is visible).
    auto shed = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                         {{"X-Xsdf-Deadline-Ms", "0"}},
                         "<animal><dog/></animal>", kClientTimeoutMs);
    ASSERT_TRUE(shed.ok());
    ASSERT_EQ(shed->status, 504);
  }  // runner drains; each HttpCall closed its connection -> flushed

  std::vector<std::string> lines = WaitForLogLines(log_path.string(), 3);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    // Field-completeness: every key present on every line, whatever
    // the status (the schema tools/validate_obs.py accesslog checks).
    for (const char* key :
         {"\"ts_ms\":", "\"id\":", "\"method\":", "\"path\":",
          "\"status\":", "\"bytes\":", "\"total_us\":", "\"deadline_ms\":",
          "\"queue_us\":", "\"engine_us\":", "\"worker\":",
          "\"measures\":"}) {
      EXPECT_NE(line.find(key), std::string::npos)
          << "missing " << key << " in: " << line;
    }
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_NE(lines[0].find("\"id\":\"00000000000cafe5\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"status\":200"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":400"), std::string::npos);
  EXPECT_NE(lines[2].find("\"status\":504"), std::string::npos);
  // The 200 ran through the engine: a worker claimed it.
  EXPECT_EQ(lines[0].find("\"worker\":-1"), std::string::npos) << lines[0];
  std::filesystem::remove(log_path);
}

TEST(ServeTest, RetryAfterIsABoundedIntegerOn429) {
  auto network = MiniNetwork();
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.engine.queue_capacity = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  std::string xml = "<hospital>";
  for (int i = 0; i < 12; ++i) {
    xml += "<patient><condition>cold</condition><doctor>head</doctor>"
           "<bank>blood</bank></patient>";
  }
  xml += "</hospital>";

  std::atomic<int> rejected{0};
  std::atomic<int> bad_header{0};
  for (int round = 0; round < 5 && rejected.load() == 0; ++round) {
    std::vector<std::thread> clients;
    for (int i = 0; i < 8; ++i) {
      clients.emplace_back([&] {
        auto response = HttpCall(kHost, server.port(), "POST",
                                 "/disambiguate", {}, xml, kClientTimeoutMs);
        if (!response.ok() || response->status != 429) return;
        ++rejected;
        auto it = response->headers.find("retry-after");
        if (it == response->headers.end()) {
          ++bad_header;
          return;
        }
        char* end = nullptr;
        long seconds = std::strtol(it->second.c_str(), &end, 10);
        // Derived from queue depth / drain rate, but always a plain
        // integer in [1, 30] whatever the live rates were.
        if (end == it->second.c_str() || *end != '\0' || seconds < 1 ||
            seconds > 30) {
          ++bad_header;
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  EXPECT_GT(rejected.load(), 0)
      << "no request was shed across 5 rounds of 8 concurrent clients";
  EXPECT_EQ(bad_header.load(), 0);
}

TEST(ServeTest, MetricsPrometheusExposition) {
  auto network = MiniNetwork();
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.metrics = &registry;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto doc = HttpCall(kHost, server.port(), "POST", "/disambiguate", {},
                      "<animal><cat/></animal>", kClientTimeoutMs);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->status, 200);

  auto prom = HttpCall(kHost, server.port(), "GET", "/metrics?format=prom",
                       {}, "", kClientTimeoutMs);
  ASSERT_TRUE(prom.ok());
  EXPECT_EQ(prom->status, 200);
  EXPECT_NE(prom->headers.at("content-type").find("text/plain"),
            std::string::npos);
  const std::string& text = prom->body;
  EXPECT_NE(text.find("# TYPE xsdf_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE xsdf_serve_request_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("xsdf_serve_request_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("xsdf_serve_request_us_sum"), std::string::npos);
  EXPECT_NE(text.find("xsdf_serve_request_us_count"), std::string::npos);
  // The status-class histograms exist (count 0 or more) from startup.
  EXPECT_NE(text.find("xsdf_serve_request_2xx_us_count"),
            std::string::npos);
  EXPECT_NE(text.find("xsdf_serve_request_5xx_us_count"),
            std::string::npos);

  auto bad = HttpCall(kHost, server.port(), "GET", "/metrics?format=xml",
                      {}, "", kClientTimeoutMs);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);

  // The JSON default is unchanged by the new renderer.
  auto json = HttpCall(kHost, server.port(), "GET", "/metrics", {}, "",
                       kClientTimeoutMs);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->status, 200);
  EXPECT_NE(json->body.find("\"histograms\""), std::string::npos);
}

TEST(ServeTest, StatsReportsRollingPercentilesAndDebugSlowHasSpans) {
  auto network = MiniNetwork();
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  for (int i = 0; i < 3; ++i) {
    auto doc = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                        {{"X-Xsdf-Request-Id", "000000000000bead"}},
                        "<animal><cat/></animal>", kClientTimeoutMs);
    ASSERT_TRUE(doc.ok());
    ASSERT_EQ(doc->status, 200);
  }

  auto stats = HttpCall(kHost, server.port(), "GET", "/stats", {}, "",
                        kClientTimeoutMs);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  for (const char* key :
       {"\"endpoints\"", "\"disambiguate\"", "\"p50_us\"", "\"p99_us\"",
        "\"p999_us\"", "\"rate_per_s\"", "\"slow_traces_retained\""}) {
    EXPECT_NE(stats->body.find(key), std::string::npos) << key;
  }
  // Three completed /disambiguate requests inside the rolling minute.
  EXPECT_NE(stats->body.find("\"count\":3"), std::string::npos)
      << stats->body;

  auto slow = HttpCall(kHost, server.port(), "GET", "/debug/slow", {}, "",
                       kClientTimeoutMs);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->status, 200);
  const std::string& trace = slow->body;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // The span tree covers the full request path: connection-side read
  // and send, queue wait, and the engine stages. The streaming front
  // end fuses parse + tree build into the one "parse" span.
  for (const char* span : {"\"read\"", "\"queue_wait\"", "\"parse\"",
                           "\"disambiguate\"",
                           "\"serialize\"", "\"send\""}) {
    EXPECT_NE(trace.find(span), std::string::npos) << span;
  }
  // Traces are labeled with the request id, so a log line and a span
  // tree correlate without guesswork.
  EXPECT_NE(trace.find("req 000000000000bead"), std::string::npos);
  EXPECT_NE(trace.find("POST /disambiguate -> 200"), std::string::npos);
}

TEST(ServeTest, MeasureConfigSurfacesInExplainStatsAndAccessLog) {
  // A server started under a non-default --measures composition must
  // (a) answer byte-identically to an engine under the same config,
  // (b) report the canonical spec in /explain (body + header) and
  // /stats, and (c) stamp every access-log line with it — so an
  // operator can always tell which composition produced a response.
  auto network = MiniNetwork();
  auto parsed = sim::MeasureConfig::Parse(
      "wu-palmer:0.25,lin:0.25,gloss-overlap:0.25,conceptual-density:0.25");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string spec = parsed->ToSpec();

  std::filesystem::path log_path =
      std::filesystem::temp_directory_path() / "xsdf_serve_measures_test.jsonl";
  std::filesystem::remove(log_path);

  ServeOptions options;
  options.port = 0;
  options.engine.threads = 2;
  options.engine.disambiguator.measure_config = *parsed;
  options.access_log_path = log_path.string();
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "mini").ok());
  ASSERT_TRUE(server.Start().ok());

  // Find a corpus document whose output under hybrid+density differs
  // from the paper default, so the test cannot silently pass because
  // the config was ignored everywhere. The generated Amazon family
  // discriminates today; searching keeps the test robust if the
  // generators change.
  std::string xml;
  std::string engine_answer;
  {
    runtime::EngineOptions engine_options;
    engine_options.threads = 1;
    engine_options.disambiguator.measure_config = *parsed;
    runtime::DisambiguationEngine engine(network.get(), engine_options);
    for (const auto* generator : datasets::AllDatasets()) {
      for (const auto& doc : generator->Generate(20150323)) {
        auto results = engine.RunBatch({{0, doc.name, doc.xml}});
        ASSERT_TRUE(results[0].ok) << results[0].error;
        if (results[0].semantic_xml != EngineAnswer(*network, doc.xml)) {
          xml = doc.xml;
          engine_answer = results[0].semantic_xml;
          break;
        }
      }
      if (!xml.empty()) break;
    }
  }
  ASSERT_FALSE(xml.empty())
      << "no generated document discriminates hybrid+density from the "
         "paper default";

  {
    ServerRunner runner(&server);
    auto response = HttpCall(kHost, server.port(), "POST", "/disambiguate",
                             {}, xml, kClientTimeoutMs);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, engine_answer);

    // node=1: the document element — present whatever document the
    // search above settled on.
    auto explain = HttpCall(kHost, server.port(), "POST",
                            "/explain?node=1", {}, xml, kClientTimeoutMs);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_EQ(explain->status, 200);
    EXPECT_NE(explain->body.find("\"measures\":\"" + spec + "\""),
              std::string::npos)
        << explain->body;
    EXPECT_EQ(explain->headers.at("x-xsdf-measures"), spec);

    auto stats = HttpCall(kHost, server.port(), "GET", "/stats", {}, "",
                          kClientTimeoutMs);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->status, 200);
    EXPECT_NE(stats->body.find(spec), std::string::npos) << stats->body;
  }

  std::vector<std::string> lines = WaitForLogLines(log_path.string(), 3);
  ASSERT_GE(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"measures\":\"" + spec + "\""), std::string::npos)
        << line;
  }
  std::filesystem::remove(log_path);
}

TEST(ServeTest, DisabledTracingTurnsDebugSlowOff) {
  auto network = BuildTinyTaxonomy(0);
  ServeOptions options;
  options.port = 0;
  options.engine.threads = 1;
  options.slow_request_keep = 0;
  Server server(options);
  ASSERT_TRUE(server.InstallLexicon(network, "tiny").ok());
  ASSERT_TRUE(server.Start().ok());
  ServerRunner runner(&server);

  auto doc = HttpCall(kHost, server.port(), "POST", "/disambiguate", {},
                      "<animal><cat/></animal>", kClientTimeoutMs);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->status, 200);
  auto slow = HttpCall(kHost, server.port(), "GET", "/debug/slow", {}, "",
                       kClientTimeoutMs);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->status, 404);
}

}  // namespace
}  // namespace xsdf
