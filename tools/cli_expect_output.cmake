# Runs `XSDF ARG1 [ARG2 [ARG3]]` and fails unless it exits 0 and its
# stdout is byte-identical to the file EXPECTED. Run as a ctest command:
#   cmake -DXSDF=<xsdf> -DARG1=... [-DARG2=... [-DARG3=...]]
#         -DEXPECTED=<file> -P cli_expect_output.cmake
set(args ${ARG1})
if(DEFINED ARG2)
  list(APPEND args ${ARG2})
endif()
if(DEFINED ARG3)
  list(APPEND args ${ARG3})
endif()
execute_process(COMMAND ${XSDF} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "xsdf ${args}: exit status ${status}\n${err}")
endif()
file(READ ${EXPECTED} expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "xsdf ${args}: stdout differs from ${EXPECTED}:\n"
                      "${out}\n--- expected ---\n${expected}")
endif()
