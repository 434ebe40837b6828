# Pins the paper-scale community output byte for byte: generates the
# paper-scale seed-42 dataset into WORK_DIR, runs `kcc cpm --out` with the
# sweep and incremental engines and fails unless each output file has its
# recorded MD5. per_k writes the sweep's bytes (and so, on this input, does
# almost_exact); incremental writes its clique table in lexicographic
# order, hence its own digest.
#
#   cmake -DKCC=path/to/kcc -DWORK_DIR=dir -P check_paper_md5.cmake
set(expected_sweep 5c6e3a340c9c8ef03448f1fb9d0d7185)
set(expected_incremental 1b1df4ed6cd2048df08e822267a2154e)

execute_process(
  COMMAND ${KCC} generate --out-dir=${WORK_DIR} --scale=paper --seed=42
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kcc generate exited ${rc}:\n${err}")
endif()
foreach(engine sweep incremental)
  set(out ${WORK_DIR}/cpm_${engine}.txt)
  file(REMOVE ${out})
  execute_process(
    COMMAND ${KCC} cpm --edges=${WORK_DIR}/topology.txt --engine=${engine}
            --out=${out}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "kcc cpm --engine=${engine} exited ${rc}:\n${err}")
  endif()
  file(MD5 ${out} actual)
  if(NOT actual STREQUAL expected_${engine})
    message(FATAL_ERROR "kcc cpm --engine=${engine} --out MD5 is ${actual}, "
                        "expected ${expected_${engine}}")
  endif()
  message(STATUS "${engine}: ${actual}")
endforeach()
