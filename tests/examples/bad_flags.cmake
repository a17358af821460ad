# The examples check their operating-point flags before they build
# anything: each leg passes one malformed or out-of-range value and must
# exit 2 with a single "error: --<flag> ..." line on stderr and nothing on
# stdout.
#
#   cmake -DEXAMPLE_DIR=<directory of the sfi_example_* binaries>
#         -DWORK_DIR=<scratch directory> -P tests/examples/bad_flags.cmake
#
# --trials 1 keeps an example that wrongly accepts its flag short.
foreach(var EXAMPLE_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bad_flags.cmake: -D${var}=... is required")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures "")
function(check_rejects example flag value)
    execute_process(
        COMMAND "${EXAMPLE_DIR}/sfi_example_${example}" --${flag} ${value}
                --trials 1
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2 OR NOT err MATCHES "^error: --${flag} [^\n]*\n$" OR
       NOT out STREQUAL "")
        string(APPEND failures "\n  ${example} --${flag} ${value}: exit "
               "${code} (expected 2 with one \"error: --${flag}\" line and "
               "no stdout)\n${err}${out}")
        set(failures "${failures}" PARENT_SCOPE)
    endif()
endfunction()

check_rejects(quickstart freq -700)
check_rejects(quickstart sigma -5)
check_rejects(adaptive_sampling vdd 0)
check_rejects(model_comparison sigma -5)
check_rejects(voltage_explorer max-error -1)

if(failures)
    message(FATAL_ERROR "example flag checks failed:${failures}")
endif()
message(STATUS "examples reject out-of-range operating points")
