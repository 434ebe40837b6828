# Pins the stage list of `kcc update --report-out`: replays DELTAS (one
# batch) into a snapshot under WORK_DIR and fails unless the run report's
# stages are exactly cliques, apply, materialize, percolate, tree,
# snapshot_write — each stage of the run named once, in order.
#
#   cmake -DKCC=path/to/kcc -DDELTAS=file.delta -DWORK_DIR=dir \
#         -P check_update_report.cmake
set(expected cliques apply materialize percolate tree snapshot_write)
set(report ${WORK_DIR}/report.json)
file(MAKE_DIRECTORY ${WORK_DIR})
file(REMOVE ${report})
execute_process(
  COMMAND ${KCC} update --deltas=${DELTAS}
          --snapshot-out=${WORK_DIR}/updated.snap --report-out=${report}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kcc update exited ${rc}:\n${err}")
endif()
file(READ ${report} json)
string(JSON count LENGTH "${json}" stages)
set(actual "")
if(count GREATER 0)
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${json}" stages ${i} name)
    list(APPEND actual ${name})
  endforeach()
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "kcc update --report-out stages are '${actual}', "
                      "expected '${expected}'")
endif()
message(STATUS "stages: ${actual}")
