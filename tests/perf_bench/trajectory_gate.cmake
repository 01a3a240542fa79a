# perf_bench's trajectory gate: in full mode with --append, a calendar
# events/sec 15 % or more below the newest full-mode point of the engine
# file exits 5 once every artifact is written.  The fixture's newest
# full-mode point reads 1e12 events/sec, so every host fails it, and a
# newer smoke point reads 1 event/sec, which must not serve as the
# baseline.  perf_bench rewrites the engine file, so each run starts from
# a fresh copy of the fixture.
#
#   cmake -DPERF_BENCH=<exe> -DFIXTURE=<json> -P trajectory_gate.cmake
set(engine perf_bench_gate_engine.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${FIXTURE}" "${engine}")
execute_process(
  COMMAND "${PERF_BENCH}" --churn-events 20000 --churn-chains 1000
          --reps 1 --append --out-engine "${engine}"
          --out-e2e perf_bench_gate_e2e.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 5)
  message(FATAL_ERROR "perf_bench exited ${rc}, want 5:\n${out}${err}")
endif()
string(CONCAT line
       "FAIL: calendar [0-9]+ events/sec at depth 1000 is [0-9.]+% below "
       "the newest full-mode trajectory point \\(1000000000000\\)")
if(NOT err MATCHES "${line}")
  message(FATAL_ERROR "no regression line in perf_bench's stderr:\n${err}")
endif()
message(STATUS "trajectory gate fired: exit 5")
