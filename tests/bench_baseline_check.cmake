# Runs one bench with MSN_BENCH_SMOKE=1, writing into a fresh OUT_DIR, then
# gates the BENCH_<name>.json it wrote against the committed smoke baseline
# with tools/compare_bench_json.py. Registered with ctest in
# tests/CMakeLists.txt; by hand:
#
#   cmake -DBENCH=build/bench/bench_registration
#         -DBASELINE=bench/baselines/BENCH_registration.smoke.json
#         -DCOMPARE=tools/compare_bench_json.py -DPYTHON=python3
#         -DOUT_DIR=/tmp/bench_registration -P tests/bench_baseline_check.cmake
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(ENV{MSN_BENCH_SMOKE} 1)
set(ENV{MSN_BENCH_JSON_DIR} "${OUT_DIR}")
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_FILE "${OUT_DIR}/stdout.txt")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}; output in ${OUT_DIR}/stdout.txt")
endif()
# BENCH_<name>.smoke.json -> BENCH_<name>.json
get_filename_component(report "${BASELINE}" NAME)
string(REPLACE ".smoke.json" ".json" report "${report}")
execute_process(COMMAND "${PYTHON}" "${COMPARE}" "${BASELINE}" "${OUT_DIR}/${report}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${report} drifted from ${BASELINE}")
endif()
