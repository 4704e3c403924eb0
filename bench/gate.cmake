# Runs one bench in WORK_DIR and compares its stdout with EXPECTED.
# Usage: cmake -DBENCH=<binary> -DEXPECTED=<file> -DWORK_DIR=<dir> -P gate.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_FILE "${WORK_DIR}/stdout.txt" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}"
                        "${WORK_DIR}/stdout.txt"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${EXPECTED}" "${WORK_DIR}/stdout.txt")
  message(FATAL_ERROR "simulated-time output changed: ${WORK_DIR}/stdout.txt differs "
                      "from ${EXPECTED}. If the change is intended, refresh the file "
                      "and name the change.")
endif()
