# Regenerates the fuzz seed corpora into a scratch directory and
# requires them to equal the checked-in ones (fuzz/corpus minus
# regressions/) file for file and byte for byte, so a seed cannot drift
# from its generator.
#
#   cmake -DGENERATOR=<make_fuzz_corpus> -DCORPUS=<fuzz/corpus>
#         -DOUT=<scratch directory> -P fuzz_corpus_regenerates.cmake

file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${GENERATOR}" "${OUT}"
                RESULT_VARIABLE status ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${GENERATOR} exited ${status}:\n${stderr}")
endif()

file(GLOB_RECURSE generated RELATIVE "${OUT}" "${OUT}/*")
file(GLOB_RECURSE checked_in RELATIVE "${CORPUS}" "${CORPUS}/*")
list(FILTER checked_in EXCLUDE REGEX "^regressions/")
set(only_generated ${generated})
set(only_checked_in ${checked_in})
if(checked_in)
  list(REMOVE_ITEM only_generated ${checked_in})
endif()
if(generated)
  list(REMOVE_ITEM only_checked_in ${generated})
endif()
if(only_generated OR only_checked_in)
  message(FATAL_ERROR "seed file sets differ\n"
          "  generated only: ${only_generated}\n"
          "  checked in only: ${only_checked_in}")
endif()

set(differing "")
foreach(name IN LISTS generated)
  file(SHA256 "${OUT}/${name}" want)
  file(SHA256 "${CORPUS}/${name}" got)
  if(NOT want STREQUAL got)
    list(APPEND differing "${name}")
  endif()
endforeach()
if(differing)
  message(FATAL_ERROR "seeds differ from their generator: ${differing}")
endif()
list(LENGTH generated count)
message(STATUS "${count} seeds regenerate byte for byte")
