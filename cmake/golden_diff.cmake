# Golden-output gate: run TOOL with ARGS (plus --out=) and require it to
# exit 0 and write a file byte-identical to GOLDEN.  A change that moves
# any byte of the report must update the golden file in the same commit.
# Invoked by ctest (see tests/CMakeLists.txt).
#
#   cmake -DTOOL=<path> -DARGS="<space separated>" -DGOLDEN=<file> \
#         -DOUT_DIR=<dir> -DTAG=<name> -P golden_diff.cmake
if(NOT DEFINED TOOL OR NOT DEFINED GOLDEN OR NOT DEFINED OUT_DIR OR
   NOT DEFINED TAG)
  message(FATAL_ERROR
          "golden_diff.cmake needs -DTOOL=, -DGOLDEN=, -DOUT_DIR=, -DTAG=")
endif()
separate_arguments(TOOL_ARGS UNIX_COMMAND "${ARGS}")

set(out "${OUT_DIR}/${TAG}.golden.json")
execute_process(COMMAND "${TOOL}" ${TOOL_ARGS} "--out=${out}"
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} exited ${rc}\n${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${out}" "${GOLDEN}"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "${TAG}: output ${out} differs from the golden file ${GOLDEN}")
endif()
message(STATUS "${TAG}: byte-identical to ${GOLDEN}")
