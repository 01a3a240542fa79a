# Each .wlg file in FILES is in canonical form: xkbsim_cli --workload-file F
# --dump-wlg reprints it byte for byte.
#
#   cmake -DCLI=<xkbsim_cli> "-DFILES=<file;file;...>" -P wlg_roundtrip.cmake
foreach(file ${FILES})
  execute_process(COMMAND "${CLI}" --workload-file "${file}" --dump-wlg
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  file(READ "${file}" text)
  if(NOT rc EQUAL 0 OR NOT out STREQUAL text)
    message(FATAL_ERROR "${file}: write(parse(file)) != file (exit ${rc})\n"
                        "${err}")
  endif()
  message(STATUS "ok ${file}")
endforeach()
