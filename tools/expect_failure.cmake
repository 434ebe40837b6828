# Runs `${KCC}` with the comma-separated ARGS and fails unless it exits
# non-zero AND its output contains the EXPECT substring. Unlike a bare
# WILL_FAIL, a crash or an unrelated error does not pass. Used by the
# kcc_cli_* rejection ctests:
#
#   cmake -DKCC=path/to/kcc -DARGS=cpm,--engine=stream \
#         "-DEXPECT=unknown engine 'stream'" -P expect_failure.cmake
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND ${KCC} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "kcc ${args} exited 0; expected a failure:\n${out}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "kcc ${args} exited ${rc} without '${EXPECT}':\n"
                      "${out}${err}")
endif()
