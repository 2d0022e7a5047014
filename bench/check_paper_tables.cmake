# Runs `bench_paper <name>` for each name in NAMES (space-separated) and
# compares its stdout byte for byte with bench/expected/<name>.txt; then
# checks the command line: --help lists every name, and an unknown name or a
# trailing argument exits 2 naming the offending argument.
#
#   cmake -DBENCH_PAPER=<path/to/bench_paper> -DEXPECTED_DIR=<bench/expected> \
#         "-DNAMES=<name> ..." -P check_paper_tables.cmake
#
# Runs are in FP_BENCH_FAST mode (the analytic tables do not depend on it)
# and export nothing. To regenerate after an intended change:
#   FP_BENCH_FAST=1 bench_paper <name> > <name>.txt
set(ENV{FP_BENCH_FAST} 1)
unset(ENV{FP_BENCH_OUT})
separate_arguments(NAMES)

foreach(name ${NAMES})
  execute_process(COMMAND ${BENCH_PAPER} ${name}
                  OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper ${name} exited with ${rc}")
  endif()
  file(READ ${EXPECTED_DIR}/${name}.txt expected)
  if(NOT actual STREQUAL expected)
    file(WRITE ${name}.actual.txt "${actual}")
    message(FATAL_ERROR "bench_paper ${name}: stdout differs from "
            "${EXPECTED_DIR}/${name}.txt (actual output written to "
            "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt)")
  endif()
  message(STATUS "bench_paper ${name}: matches")
endforeach()

execute_process(COMMAND ${BENCH_PAPER} --help OUTPUT_VARIABLE help
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_paper --help exited with ${rc}")
endif()
foreach(name table1 table2 table3 table4 table7_8 fig2 fig6 fig7 fig8 fig9
             fig10 extensions async comm mem)
  if(NOT help MATCHES "\n  ${name} ")
    message(FATAL_ERROR "bench_paper --help does not list '${name}'")
  endif()
endforeach()

foreach(args "nosuch" "fig6;extra")
  list(GET args -1 culprit)
  execute_process(COMMAND ${BENCH_PAPER} ${args} OUTPUT_QUIET
                  ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(REGEX MATCH "^[^\n]*" first_line "${err}")
  if(NOT rc EQUAL 2 OR NOT first_line MATCHES "'${culprit}'")
    string(REPLACE ";" " " args "${args}")
    message(FATAL_ERROR "bench_paper ${args}: expected exit 2 naming "
            "'${culprit}', got ${rc}: ${first_line}")
  endif()
endforeach()
