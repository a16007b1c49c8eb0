# Runs one command and checks its exit code and, optionally, its stdout.
#
#   cmake -DEXPECT_EXIT=<code> [-DGOLDEN=<file>] [-DSHAPE=ON]
#         [-DEXPECT_STDERR=<regex>] -P check_output.cmake -- <command...>
#
# EXPECT_STDERR: stderr must match the regular expression (the diagnosis
#         a rejected input or flag prints).
# GOLDEN: stdout must equal the file byte for byte.
# SHAPE:  before the comparison every number (integer, decimal or %g
#         exponent form, optionally signed) becomes '#' and runs of spaces
#         become one space, so a timing-dependent run still pins every
#         report line, label and JSON key while its values float.
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "check_output: no command after --")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT_EXIT}\n"
                      "--- stdout ---\n${out}--- stderr ---\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}'\n"
                      "--- stderr ---\n${err}")
endif()
if(DEFINED GOLDEN)
  if(SHAPE)
    string(REGEX REPLACE "-?[0-9]+(\\.[0-9]+)?(e[-+][0-9]+)?" "#" out "${out}")
    string(REGEX REPLACE " +" " " out "${out}")
  endif()
  file(READ "${GOLDEN}" want)
  if(NOT out STREQUAL want)
    string(REGEX REPLACE "\\.[^.]*$" ".actual" actual_name "${GOLDEN}")
    get_filename_component(actual_name "${actual_name}" NAME)
    file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/${actual_name}" "${out}")
    execute_process(COMMAND diff -u "${GOLDEN}"
                            "${CMAKE_CURRENT_BINARY_DIR}/${actual_name}")
    message(FATAL_ERROR "stdout differs from ${GOLDEN} "
                        "(actual output: ${CMAKE_CURRENT_BINARY_DIR}/${actual_name})")
  endif()
endif()
