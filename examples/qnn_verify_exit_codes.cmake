# CTest driver for the qnn_verify CLI's exit codes:
#   cmake -DQNN_VERIFY=<path to qnn_verify> -P qnn_verify_exit_codes.cmake
# Malformed arguments and a size the model cannot be built at must exit 2
# (bad usage), never abort; a plain run must exit 0.
if(NOT QNN_VERIFY)
  message(FATAL_ERROR "pass -DQNN_VERIFY=<path to the qnn_verify binary>")
endif()

set(failures 0)
function(expect_exit expected)
  execute_process(COMMAND "${QNN_VERIFY}" ${ARGN}
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected}")
    message(SEND_ERROR "qnn_verify ${ARGN}: exit '${code}', expected "
      "${expected}\n${err}")
  else()
    message(STATUS "qnn_verify ${ARGN}: exit ${code}")
  endif()
endfunction()

expect_exit(2 tiny abc)    # non-numeric input_size
expect_exit(2 tiny 0)      # the model builder refuses the size
expect_exit(2 tiny 12 -5)  # negative fifo_capacity
expect_exit(2 tiny 12 x)   # non-numeric fifo_capacity
expect_exit(0 tiny)
