# Pins the paper-scale community output byte for byte: generates the
# paper-scale seed-42 dataset into WORK_DIR, runs `kcc cpm --out` with the
# sweep engine and fails unless the output file has its recorded MD5.
# per_k writes the same bytes (and so, on this input, does almost_exact).
#
#   cmake -DKCC=path/to/kcc -DWORK_DIR=dir -P check_paper_md5.cmake
set(expected 5c6e3a340c9c8ef03448f1fb9d0d7185)

execute_process(
  COMMAND ${KCC} generate --out-dir=${WORK_DIR} --scale=paper --seed=42
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kcc generate exited ${rc}:\n${err}")
endif()
set(out ${WORK_DIR}/cpm_sweep.txt)
file(REMOVE ${out})
execute_process(
  COMMAND ${KCC} cpm --edges=${WORK_DIR}/topology.txt --engine=sweep
          --out=${out}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kcc cpm --engine=sweep exited ${rc}:\n${err}")
endif()
file(MD5 ${out} actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "kcc cpm --engine=sweep --out MD5 is ${actual}, "
                      "expected ${expected}")
endif()
message(STATUS "sweep: ${actual}")
