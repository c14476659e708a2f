// xsdf_dom_reference <file.xml> — the DOM reference for `xsdf
// disambiguate` and the streaming batch: parses the whole file into a
// DOM (oracles::ParseDomFile, default limits), reads the labeled tree off it
// with the test-only walk (oracles::BuildTreeViaDom), disambiguates it
// with default options over the bundled mini-WordNet and prints the
// semantic tree exactly as `xsdf disambiguate` does. Both production
// paths must print the same bytes; the DOM keeps the whole document
// resident, which is what the streaming front end's peak RSS is
// measured against.

#include <cstdio>
#include <utility>

#include "core/disambiguator.h"
#include "oracles/dom.h"
#include "oracles/dom_tree_builder.h"
#include "wordnet/mini_wordnet.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: xsdf_dom_reference <file.xml>\n");
    return 2;
  }
  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) {
    std::fprintf(stderr, "%s\n", network.status().ToString().c_str());
    return 1;
  }
  auto doc = xsdf::oracles::ParseDomFile(argv[1]);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  xsdf::core::Disambiguator system(&*network);
  auto tree = xsdf::oracles::BuildTreeViaDom(
      *doc, *network, system.options().include_values, system.label_space());
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  auto result = system.RunOnTree(std::move(tree).value());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", SemanticTreeToXml(*result, *network).c_str());
  return 0;
}
