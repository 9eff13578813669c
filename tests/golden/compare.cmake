# Golden gate for one builtin plan: run it through fare-run with canonical
# output and require the result to match the committed golden byte for byte.
# The top-level CMakeLists.txt registers one `golden_<plan>` ctest per
# tests/golden/<plan>_canonical.json; by hand:
#
#   cmake -DFARE_RUN=build/fare-run -DPLAN=smoke \
#         -DGOLDEN=tests/golden/smoke_canonical.json -DOUT=smoke.json \
#         -P tests/golden/compare.cmake
execute_process(
    COMMAND ${FARE_RUN} --plan ${PLAN} --threads 2 --json ${OUT} --canonical --quiet
    RESULT_VARIABLE run_status)
if(NOT run_status EQUAL 0)
    message(FATAL_ERROR "fare-run --plan ${PLAN} failed: ${run_status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
    message(FATAL_ERROR "plan ${PLAN}: ${OUT} differs from ${GOLDEN}")
endif()
