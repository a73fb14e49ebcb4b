# Golden stdout check: runs BIN and fails unless its standard output
# equals the file GOLDEN byte for byte. Usage:
#   cmake -DBIN=<binary> -DGOLDEN=<file> -P check_stdout.cmake
# After an intended behaviour change, regenerate the golden with
#   <binary> > <file>
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE got
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
    message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}\n"
                        "--- got:\n${got}\n--- want:\n${want}")
endif()
