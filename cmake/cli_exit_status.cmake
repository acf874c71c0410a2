# Usage-error gate: every argument a tool's flag table rejects must make
# the tool exit 2 before it does any work, with nothing on stdout.  Each
# numeric flag is probed at lo-1, at hi+1 and with trailing garbage, so a
# range that drifts from the one documented here fails in plain view.
# Invoked by ctest (see tests/CMakeLists.txt).
#
#   cmake -DTOOL_DIR=<dir holding the mfm_* binaries> -P cli_exit_status.cmake
#
# Every run also passes --only=no-such-unit, so a bad argument the table
# wrongly accepts selects no job and exits 0 at once: a failure here is
# reported, never a full-roster run.
if(NOT DEFINED TOOL_DIR)
  message(FATAL_ERROR "cli_exit_status.cmake needs -DTOOL_DIR=")
endif()

set(failures "")
set(runs 0)

function(expect_usage_error tool)
  execute_process(COMMAND "${TOOL_DIR}/${tool}" --only=no-such-unit ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  math(EXPR n "${runs} + 1")
  set(runs ${n} PARENT_SCOPE)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "")
    set(failures "${failures}\n  ${tool} ${ARGN}: exit '${rc}', stdout '${out}'"
        PARENT_SCOPE)
  endif()
endfunction()

# A numeric row: below = lo-1, above = hi+1 ("" when hi is unbounded).
function(expect_range tool flag below above)
  expect_usage_error(${tool} ${flag}=${below})
  if(NOT above STREQUAL "")
    expect_usage_error(${tool} ${flag}=${above})
  endif()
  expect_usage_error(${tool} ${flag}=12x)
  set(runs ${runs} PARENT_SCOPE)
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

set(tools mfm_lint mfm_faults mfm_sweep mfm_opt mfm_glitch mfm_serve)
foreach(tool IN LISTS tools)
  expect_usage_error(${tool} --no-such-flag)
  expect_usage_error(${tool} --json=1)
  expect_usage_error(${tool} stray)
  # Safe on mfm_serve too: its service starts no more workers than the
  # jobs it planned, and --only=no-such-unit plans none.
  expect_range(${tool} --threads 0 1025)
  if(NOT tool STREQUAL "mfm_lint")
    expect_usage_error(${tool} --seed=12x)
    expect_usage_error(${tool} --seed=18446744073709551616)
    expect_usage_error(${tool} --seed=-1)
  endif()
endforeach()

expect_usage_error(mfm_lint --seed=1)
expect_usage_error(mfm_lint --fail-on=fatal)
expect_usage_error(mfm_lint --fail-on=)
expect_range(mfm_lint --fanout-threshold -1 1000001)

expect_range(mfm_faults --vectors 1 1000001)
expect_range(mfm_faults --fail-under -1 101)
expect_usage_error(mfm_faults --fail-under=nan)
expect_usage_error(mfm_faults --transient=1)

expect_range(mfm_sweep --rounds 0 10001)
expect_range(mfm_sweep --verify-vectors 1 1000001)
expect_range(mfm_sweep --min-total-removed -1 9223372036854775808)

expect_usage_error(mfm_opt --no-sweep)
expect_range(mfm_opt --rounds 0 10001)
expect_range(mfm_opt --verify-vectors 1 1000001)
expect_range(mfm_opt --min-area-saved -1 "")

expect_range(mfm_glitch --vectors 0 100001)
expect_range(mfm_glitch --top 0 10001)
expect_range(mfm_glitch --min-overlap -1 2)
expect_range(mfm_glitch --min-corr -2 2)

expect_range(mfm_serve --ops 0 10000001)
expect_range(mfm_serve --batch 0 1000001)
expect_range(mfm_serve --queue 0 1000001)

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "arguments not rejected with exit 2 and an empty "
                      "stdout:${failures}")
endif()
message(STATUS "cli_exit_status: ${runs} bad arguments, each exit 2 with "
               "nothing on stdout")
