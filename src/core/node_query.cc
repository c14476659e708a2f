#include "core/node_query.h"

#include <cctype>
#include <charconv>
#include <cstdint>

namespace xsdf::core {

std::vector<xml::NodeId> ResolveNodeQuery(const xml::LabeledTree& tree,
                                          const std::string& query) {
  std::vector<xml::NodeId> matches;
  if (query.empty()) return matches;

  bool all_digits = true;
  for (char c : query) {
    if (!std::isdigit(static_cast<unsigned char>(c))) all_digits = false;
  }
  if (all_digits) {
    // A value past uint64_t fails to parse, and one past the tree's
    // last id matches nothing, like any other miss.
    uint64_t id = 0;
    const auto [end, error] =
        std::from_chars(query.data(), query.data() + query.size(), id);
    if (error == std::errc() && end == query.data() + query.size() &&
        id < tree.size()) {
      matches.push_back(static_cast<xml::NodeId>(id));
    }
    return matches;
  }

  const bool anchored = query[0] == '/';
  std::vector<std::string> components;
  std::string component;
  for (size_t pos = anchored ? 1 : 0; pos <= query.size(); ++pos) {
    if (pos == query.size() || query[pos] == '/') {
      if (!component.empty()) components.push_back(component);
      component.clear();
    } else {
      component.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(query[pos]))));
    }
  }
  if (components.empty()) return matches;

  auto node_matches = [&](xml::NodeId id, const std::string& want) {
    std::string raw(tree.raw(id));
    for (char& c : raw) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return raw == want || tree.label(id) == want;
  };
  for (xml::NodeId id : tree.ids()) {
    std::vector<xml::NodeId> path = tree.RootPath(id);
    if (path.size() < components.size()) continue;
    if (anchored && path.size() != components.size()) continue;
    size_t offset = path.size() - components.size();
    bool ok = true;
    for (size_t c = 0; c < components.size() && ok; ++c) {
      ok = node_matches(path[offset + c], components[c]);
    }
    if (ok) matches.push_back(id);
  }
  return matches;
}

}  // namespace xsdf::core
