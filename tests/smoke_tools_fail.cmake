# CLI failure-path smoke test: each tool handed a missing package or a
# malformed flag must exit with code 2 and an "error: <what>" line, never
# abort through std::terminate. Invoked from ctest (see
# tests/CMakeLists.txt) with
#   -DVSQ_SERVE=<path> -DVSQ_INSPECT=<path> -DVSQ_QUANTIZE=<path> -DWORK_DIR=<scratch dir>
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{VSQ_ARTIFACTS} "${WORK_DIR}/artifacts")
set(MISSING "${WORK_DIR}/missing.vsqa")

function(expect_clean_failure name)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE out)
  message(STATUS "${name} output:\n${out}")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${name}: expected exit code 2, got ${rc}")
  endif()
  if(out MATCHES "terminate called")
    message(FATAL_ERROR "${name}: aborted through std::terminate")
  endif()
  if(NOT out MATCHES "error: ")
    message(FATAL_ERROR "${name}: no 'error: <what>' diagnostic")
  endif()
endfunction()

expect_clean_failure("vsq_serve missing package" "${VSQ_SERVE}" "--package=${MISSING}")
expect_clean_failure("vsq_serve malformed flag" "${VSQ_SERVE}" "--package=${MISSING}"
                     --clients=many)
expect_clean_failure("vsq_inspect missing package" "${VSQ_INSPECT}" "--package=${MISSING}")
expect_clean_failure("vsq_quantize malformed config" "${VSQ_QUANTIZE}" --model=tiny
                     --config=4/8 "--out=${WORK_DIR}/tiny.vsqa")
