# Fails unless `XSDF disambiguate FILE` prints exactly the tree that
# `XSDF batch LIST --threads 1` prints for FILE (LIST names FILE alone)
# after its `<!-- path -->` line, both exiting 0. Run as a ctest command:
#   cmake -DXSDF=<xsdf> -DFILE=<file.xml> -DLIST=<file list>
#         -P cli_batch_matches_disambiguate.cmake
execute_process(COMMAND ${XSDF} disambiguate ${FILE}
                RESULT_VARIABLE single_status
                OUTPUT_VARIABLE single
                ERROR_QUIET)
execute_process(COMMAND ${XSDF} batch ${LIST} --threads 1
                RESULT_VARIABLE batch_status
                OUTPUT_VARIABLE batch
                ERROR_QUIET)
if(NOT single_status EQUAL 0 OR NOT batch_status EQUAL 0)
  message(FATAL_ERROR "exit status: disambiguate ${single_status}, "
                      "batch ${batch_status}")
endif()
string(FIND "${batch}" "\n" newline)
string(SUBSTRING "${batch}" 0 ${newline} header)
if(NOT header STREQUAL "<!-- ${FILE} -->")
  message(FATAL_ERROR "unexpected batch header: ${header}")
endif()
math(EXPR tree_start "${newline} + 1")
string(SUBSTRING "${batch}" ${tree_start} -1 batch_tree)
if(NOT single STREQUAL batch_tree)
  message(FATAL_ERROR "disambiguate and batch print different trees:\n"
                      "${single}\n---\n${batch_tree}")
endif()
