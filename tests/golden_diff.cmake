# Runs `${SBST} ${ARGS}` with stdout captured to ${OUT} and fails unless the
# capture is byte-identical to the checked-in ${GOLDEN} (stderr carries
# timings and is not compared). ARGS is a `;`-separated list.
#
#   cmake -DSBST=<binary> -DARGS=<args> -DGOLDEN=<file> -DOUT=<file>
#         -P golden_diff.cmake
execute_process(COMMAND ${SBST} ${ARGS} OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sbst ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "sbst ${ARGS}: ${OUT} differs from ${GOLDEN}")
endif()
