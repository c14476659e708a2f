// libFuzzer entry point for the front-end oracle (see harnesses.cc):
// the parser, the streaming tree builder and the tree's query surface,
// each held to the test-only DOM. Input layout: one option-flag byte,
// then an XML document.
//
//   clang:  cmake -B build-fuzz -DXSDF_FUZZ=ON -DXSDF_ASAN_UBSAN=ON
//           ./build-fuzz/fuzz/fuzz_frontend -dict=fuzz/dict/xml.dict \
//               fuzz/corpus/frontend
//   gcc:    the same target builds with a standalone replay main();
//           pass corpus files as arguments to replay them.

#include "harnesses.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  xsdf::fuzz::DriveFrontEnd(data, size);
  return 0;
}
