# Fails unless the last line of a kcc_bench --trajectory file carries a
# "threads" field holding a worker count >= 1. Used by the
# kcc_bench_trajectory_threads ctest:
#
#   cmake -DTRAJECTORY=path/to/trajectory.jsonl -P check_trajectory_threads.cmake
file(STRINGS ${TRAJECTORY} lines)
list(LENGTH lines count)
if(count EQUAL 0)
  message(FATAL_ERROR "${TRAJECTORY} holds no trajectory row")
endif()
list(GET lines -1 last)
if(NOT last MATCHES "\"threads\":([0-9]+)[,}]")
  message(FATAL_ERROR "last trajectory row has no \"threads\" field:\n${last}")
endif()
if(CMAKE_MATCH_1 LESS 1)
  message(FATAL_ERROR "last trajectory row records threads ${CMAKE_MATCH_1}")
endif()
