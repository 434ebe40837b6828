# Production code must not depend on the test harness: fails when any file
# under src/ outside src/check/, or tools/kcc.cpp, includes "check/...".
#
#   cmake -DROOT=path/to/repo -P check_harness_includes.cmake
file(GLOB_RECURSE sources "${ROOT}/src/*.h" "${ROOT}/src/*.cpp")
list(APPEND sources "${ROOT}/tools/kcc.cpp")
set(offenders "")
foreach(source IN LISTS sources)
  string(FIND "${source}" "${ROOT}/src/check/" in_harness)
  if(in_harness EQUAL 0)
    continue()
  endif()
  file(STRINGS "${source}" hits REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]check/")
  if(hits)
    file(RELATIVE_PATH rel "${ROOT}" "${source}")
    list(APPEND offenders "${rel}: ${hits}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " report)
  message(FATAL_ERROR "production code includes the test harness:\n  ${report}")
endif()
