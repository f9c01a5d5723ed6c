# Run one bench and compare its standard output byte for byte with a
# golden file. Registered as a ctest by bench/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<expected> -DACTUAL=<output> -P compare_stdout.cmake
#
# The environment (IDICN_BENCH_SCALE) comes from the test's properties.
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN} (output kept in ${ACTUAL})")
endif()
