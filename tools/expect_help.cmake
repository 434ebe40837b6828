# Runs `${KCC} ${COMMAND} --help` and fails unless it exits 0 and prints
# that command's usage line. Used by the kcc_cli_help_* ctests:
#
#   cmake -DKCC=path/to/kcc -DCOMMAND=cpm -P expect_help.cmake
execute_process(COMMAND ${KCC} ${COMMAND} --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kcc ${COMMAND} --help exited ${rc}: ${err}")
endif()
if(NOT out MATCHES "^usage: kcc ${COMMAND} ")
  message(FATAL_ERROR "kcc ${COMMAND} --help printed no usage line:\n${out}")
endif()
