# Runs a tool that writes an artifact and compares the artifact byte for
# byte with a committed golden.  The test sets the provenance variables
# (XKB_GIT_DESCRIBE, XKB_BUILD_TYPE, XKB_RUN_DATE) so the artifact is
# stable; XKB_UPDATE_GOLDEN=1 rewrites the golden instead of comparing.
#
#   cmake -DTOOL=<exe> "-DARGS=<arg;arg;...>" -DOUT=<artifact>
#         -DGOLDEN=<tests/golden/file> [-DSTDOUT=ON] -P golden_output_gate.cmake
#
# With STDOUT the tool prints the artifact, and the gate saves it as OUT.
file(REMOVE "${OUT}")
execute_process(COMMAND "${TOOL}" ${ARGS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} exited ${rc}:\n${out}${err}")
endif()
if(STDOUT)
  file(WRITE "${OUT}" "${out}")
endif()
if(DEFINED ENV{XKB_UPDATE_GOLDEN})
  execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${OUT}" "${GOLDEN}")
  message(STATUS "golden regenerated at ${GOLDEN}")
  return()
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}"
                "${GOLDEN}" RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}; regenerate with "
                      "XKB_UPDATE_GOLDEN=1 if the change is intended")
endif()
