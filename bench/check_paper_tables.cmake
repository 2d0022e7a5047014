# Runs `bench_paper <name>` for each analytic (systems-plane) table and
# compares its stdout byte for byte with bench/expected/<name>.txt.
#
#   cmake -DBENCH_PAPER=<path/to/bench_paper> -DEXPECTED_DIR=<bench/expected> \
#         -P check_paper_tables.cmake
#
# To regenerate after an intended change: bench_paper <name> > <name>.txt.
foreach(name table4 table7_8 fig2 fig6 fig7 extensions)
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
