#ifndef XSDF_TESTS_INTERNED_TREE_H_
#define XSDF_TESTS_INTERNED_TREE_H_

#include <cstdint>
#include <string>

#include "common/token_interner.h"
#include "core/label_space.h"
#include "xml/labeled_tree.h"

namespace xsdf::testutil {

/// A hand-built LabeledTree for tests. Add() interns each label the
/// way the production builders do, so the tree meets LabeledTree's id
/// contract: through `space` when one is given (the tree records it as
/// its label_source(), so a Disambiguator on that space reads it),
/// else through a private TokenInterner (for trees no Disambiguator
/// reads). Finish() returns the tree.
class InternedTree {
 public:
  InternedTree() = default;
  explicit InternedTree(core::LabelSpace* space)
      : space_(space), builder_(space->serial()) {}

  /// LabeledTreeBuilder::AddNode() with `label`'s id filled in.
  xml::NodeId Add(xml::NodeId parent, const std::string& label,
                  xml::TreeNodeKind kind, const std::string& raw = {}) {
    const uint32_t id = space_ != nullptr ? space_->Resolve(label)
                                          : interner_.Intern(label);
    return builder_.AddNode(parent, label, id, kind, raw);
  }

  xml::LabeledTree Finish() { return builder_.Finish(); }

 private:
  core::LabelSpace* space_ = nullptr;
  TokenInterner interner_;
  xml::LabeledTreeBuilder builder_;
};

}  // namespace xsdf::testutil

#endif  // XSDF_TESTS_INTERNED_TREE_H_
