# Fails unless the last line of a kcc_bench --trajectory file carries a
# "threads" field holding a worker count >= 1, and every config in it has
# percolate_ms > 0, tree_ms > 0 and cpu_ms > 0. The stage columns are summed
# from the run recorder's stage samples in each forked repetition, so a
# recorder left disabled there would write silent zeros, and cpu_ms is the
# child's CPU-clock delta around the engine run. Used by the
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
string(REGEX MATCHALL "\"[^\"]+/[^\"]+\":{[^}]*}" configs "${last}")
if(NOT configs)
  message(FATAL_ERROR "last trajectory row holds no config:\n${last}")
endif()
foreach(config IN LISTS configs)
  foreach(stage percolate_ms tree_ms cpu_ms)
    if(NOT config MATCHES "\"${stage}\":([0-9.eE+-]+)[,}]")
      message(FATAL_ERROR "trajectory config has no ${stage}:\n${config}")
    endif()
    if(NOT CMAKE_MATCH_1 GREATER 0)
      message(FATAL_ERROR
        "trajectory config records ${stage} ${CMAKE_MATCH_1}:\n${config}")
    endif()
  endforeach()
endforeach()
