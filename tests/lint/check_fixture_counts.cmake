# Pin the EXACT finding count of every fire fixture.  WILL_FAIL alone only
# proves "at least one finding somewhere"; these tallies prove each
# deliberate violation in the fixture is individually detected (a scanner
# regression that drops half the patterns still exits 1 but fails here).
#
# Invoked by ctest:  cmake -DXKB_LINT=<driver> -DFIXTURES=<dir> -P <this>

set(expectations
  "unordered_observable_fire,xkb-unordered-observable,2"
  "address_ordering_fire,xkb-address-ordering,5"
  "wallclock_fire,xkb-wallclock-in-sim,4"
  "hot_path_alloc_fire,xkb-hot-path-alloc,4"
  "silent_lane_fire,xkb-silent-lane,4"
  "suppression_fire,xkb-suppression-justification,2"
)

set(failed FALSE)
foreach(row IN LISTS expectations)
  string(REPLACE "," ";" row "${row}")
  list(GET row 0 fixture)
  list(GET row 1 check)
  list(GET row 2 want)
  execute_process(
    COMMAND ${XKB_LINT} --quiet --check ${check}
            ${FIXTURES}/${fixture}.cpp
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  string(REGEX MATCHALL "\\[${check}\\]" hits "${out}")
  list(LENGTH hits got)
  if(NOT got EQUAL want)
    message(SEND_ERROR
      "${fixture}: expected ${want} ${check} finding(s), got ${got}:\n${out}")
    set(failed TRUE)
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "fixture finding counts drifted")
endif()
message(STATUS "all fixture finding counts match")
