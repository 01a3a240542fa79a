# Breaks a copy of EXPERIMENTS.md in one way and expects paper_report to
# reject it, exit 1, naming the broken block:
#   MODE=digit   the last digit inside block BLOCK changed
#   MODE=marker  block BLOCK's end marker deleted
#
#   cmake -DTOOL=<paper_report> -DSRC=<EXPERIMENTS.md> -DOUT=<copy>
#         -DBLOCK=<id> -DMODE=digit|marker -P paper_report_gate.cmake
file(READ "${SRC}" text)
set(begin "<!-- paper_report:${BLOCK} -->")
set(end "<!-- /paper_report:${BLOCK} -->")
string(FIND "${text}" "${begin}" at)
string(FIND "${text}" "${end}" stop)
if(at EQUAL -1 OR stop EQUAL -1)
  message(FATAL_ERROR "${SRC} has no block ${BLOCK}")
endif()
string(SUBSTRING "${text}" 0 ${stop} head)
string(SUBSTRING "${text}" ${stop} -1 tail)
if(MODE STREQUAL "digit")
  # The block's last digit: the last number of its last row, a simulated
  # value in every block.
  string(REGEX MATCH "([0-9])([^0-9]*)$" last "${head}")
  string(LENGTH "${last}" n)
  string(LENGTH "${begin}" skip)
  math(EXPR keep "${stop} - ${n}")
  math(EXPR body "${at} + ${skip}")
  if(n EQUAL 0 OR keep LESS body)
    message(FATAL_ERROR "block ${BLOCK} has no digit to change")
  endif()
  string(SUBSTRING "${head}" 0 ${keep} head)
  math(EXPR digit "(${CMAKE_MATCH_1} + 1) % 10")
  set(broken "${head}${digit}${CMAKE_MATCH_2}${tail}")
elseif(MODE STREQUAL "marker")
  string(REPLACE "${end}\n" "" tail "${tail}")
  set(broken "${head}${tail}")
else()
  message(FATAL_ERROR "MODE must be digit or marker")
endif()
file(WRITE "${OUT}" "${broken}")

execute_process(COMMAND "${TOOL}" "${OUT}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "block ${BLOCK} ")
  message(FATAL_ERROR "paper_report accepted a broken copy (exit ${rc}):\n"
                      "${out}${err}")
endif()
message(STATUS "rejected as expected: ${err}")
