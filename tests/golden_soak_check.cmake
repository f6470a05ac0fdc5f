# Runs `fuzz_main --soak FIRST..LAST` and compares its per-seed lines with
# the same seeds' lines in the committed golden soak file. Registered with
# ctest in tests/CMakeLists.txt; by hand:
#
#   cmake -DFUZZ_MAIN=build/examples/fuzz_main -DFIRST=1 -DLAST=125
#         -DGOLDEN=tests/golden/soak_1_2000.txt -P tests/golden_soak_check.cmake
#
# The golden file is fuzz_main's output for its whole window, one line per
# seed from its first seed on. A behaviour-changing commit regenerates it
# (`fuzz_main --soak 1..2000 > tests/golden/soak_1_2000.txt`), and its diff
# is then exactly the seeds the commit moved.
execute_process(COMMAND "${FUZZ_MAIN}" --soak "${FIRST}..${LAST}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE output)
# 0 = every seed passed, 1 = some seed failed an oracle; both are verdicts
# the golden lines record.
if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
  message(FATAL_ERROR "${FUZZ_MAIN} --soak ${FIRST}..${LAST} exited with ${rc}")
endif()
string(REGEX MATCHALL "seed=[^\n]*" actual "${output}")

file(STRINGS "${GOLDEN}" golden REGEX "^seed=")
list(GET golden 0 head)
string(REGEX REPLACE "^seed=([0-9]+) .*" "\\1" golden_first "${head}")
math(EXPR offset "${FIRST} - ${golden_first}")
math(EXPR count "${LAST} - ${FIRST} + 1")
list(SUBLIST golden ${offset} ${count} expected)
list(LENGTH expected expected_count)
if(NOT expected_count EQUAL count)
  message(FATAL_ERROR "${GOLDEN} does not cover seeds ${FIRST}..${LAST}")
endif()
list(LENGTH actual actual_count)

set(diverged 0)
math(EXPR last_index "${count} - 1")
foreach(i RANGE ${last_index})
  list(GET expected ${i} want)
  set(got "(missing)")
  if(i LESS actual_count)
    list(GET actual ${i} got)
  endif()
  if(NOT want STREQUAL got)
    message(SEND_ERROR "golden: ${want}\nactual: ${got}")
    math(EXPR diverged "${diverged} + 1")
  endif()
endforeach()
if(diverged GREATER 0)
  message(FATAL_ERROR "${diverged} of seeds ${FIRST}..${LAST} diverged from ${GOLDEN}")
endif()
