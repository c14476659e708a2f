// libFuzzer entry point for the streaming front end's differential
// oracle against the DOM build (see harnesses.cc). Input layout: one
// option-flag byte, then an XML document.

#include "harnesses.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  xsdf::fuzz::DriveStreamParser(data, size);
  return 0;
}
