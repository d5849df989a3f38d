# Runs paper_report and compares its output byte for byte with the golden
# file that EXPERIMENTS.md quotes. The printed precision of each column is
# its tolerance: a reproduced value that moves in a printed digit fails.
#
#   cmake -DREPORT=<paper_report binary> -DGOLDEN=<bench/paper_report.golden>
#         -P tests/check_paper_report.cmake
#
# The report runs in the current directory. On a mismatch the actual output
# is written there as paper_report.actual, next to a unified diff against
# the golden file; copy it over the golden file once the change is meant.
if(NOT REPORT OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DREPORT=<paper_report> -DGOLDEN=<golden> "
                      "-P check_paper_report.cmake")
endif()

execute_process(COMMAND "${REPORT}"
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${REPORT} exited with ${status}")
endif()

file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/paper_report.actual")
file(WRITE "${actual_file}" "${actual}")
find_program(DIFF diff)
if(DIFF)
  execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${actual_file}"
                  OUTPUT_VARIABLE diff_out)
  message("${diff_out}")
endif()
message(FATAL_ERROR "paper_report output differs from ${GOLDEN}; "
                    "the actual output is in ${actual_file}")
