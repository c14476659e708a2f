# Runs `XSDF ARG1 [ARG2 [ARG3 [ARG4]]]` and fails unless it exits with
# EXIT_CODE and its stderr matches STDERR_REGEX. Run as a ctest command:
#   cmake -DXSDF=<xsdf> -DARG1=... [-DARG2=... [-DARG3=... [-DARG4=...]]]
#         -DEXIT_CODE=1 "-DSTDERR_REGEX=..." -P cli_expect_exit.cmake
set(args ${ARG1})
foreach(arg ARG2 ARG3 ARG4)
  if(DEFINED ${arg})
    list(APPEND args ${${arg}})
  endif()
endforeach()
execute_process(COMMAND ${XSDF} ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL EXIT_CODE)
  message(FATAL_ERROR
          "xsdf ${args}: exit status ${status}, expected ${EXIT_CODE}\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR
          "xsdf ${args}: stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
