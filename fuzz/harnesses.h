#ifndef XSDF_FUZZ_HARNESSES_H_
#define XSDF_FUZZ_HARNESSES_H_

#include <cstddef>
#include <cstdint>

/// The fuzzing oracles, one per target. Each consumes one flat input
/// buffer and either returns normally or aborts the process on an
/// oracle violation (a crash under libFuzzer, a test failure under the
/// standalone driver and fuzz_regression_test). They live in a plain
/// library, separate from the LLVMFuzzerTestOneInput wrappers, so the
/// exact same code runs under libFuzzer, under the gcc standalone
/// replay driver, and inside plain ctest replaying the checked-in
/// regression corpus.
namespace xsdf::fuzz {

/// The front end, XML text to Definition 1's labeled tree: one flag
/// byte (bit 0 sets discard_whitespace_text, bit 2 include_values),
/// then XML, parsed under fuzz limits. The input is parsed once by
/// oracles::ParseDom and built once by core::BuildTreeStreaming and
/// once by oracles::BuildTreeViaDom, each interning through a fresh
/// LabelSpace. Then:
///  - both paths agree on accepting the input, and every rejection
///    carries a message;
///  - both trees pass Validate();
///  - the streaming tree equals the DOM build node for node (label,
///    raw, kind, parent, depth, label id, child order);
///  - its columns equal a direct DOM walk labelled by the unmemoized
///    pre-processing, ids re-derived through a fresh LabelSpace;
///  - the DOM serializes into text that reparses structurally equal
///    and serializes again to the same bytes;
///  - BuildXmlIdSphere matches oracles::Rings with and without tokens,
///    and LCA, distance, root path, subtree and the tree-wide maxima
///    stay in bounds.
void DriveFrontEnd(const uint8_t* data, size_t size);

/// wordnet::ParseWndb over a "%%file" container (see
/// propgen::UnpackWndbContainer); accepted networks must re-serialize,
/// and the rewrite must be a parse/write fixed point.
void DriveWndbParser(const uint8_t* data, size_t size);

/// snapshot::LoadNetworkSnapshotFromBuffer over an 8-aligned copy of
/// the input: every rejection must carry a message, and an accepted
/// network must survive its full read surface (ancestors, glosses,
/// senses, taxonomy queries) and re-snapshot into bytes the loader
/// accepts again.
void DriveSnapshotLoader(const uint8_t* data, size_t size);

}  // namespace xsdf::fuzz

#endif  // XSDF_FUZZ_HARNESSES_H_
