# The sampling-equivalence contract on the real sfi_campaign binary: the same
# campaigns at 1 and 4 worker threads must write byte-identical CSVs. fig4 runs model C on raw ALU op streams (one
# long stream per point, where most draws open a Bernoulli interleave on
# the noise stream); fig7 runs model C inside ISS trials at sigma = 10 and
# 25 mV, fanned out over the worker pool. (That batched draws equal the
# one-draw-per-op reference is proven against the oracles in tests/testing/
# by the fi and mc sampling suites.) Runs under ctest (label "contract");
# by hand:
#
#   cmake -DSFI_CAMPAIGN=build/sfi_campaign -DWORK_DIR=/tmp/sampling_eq \
#         -P tests/campaign/sampling_equivalence.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT SFI_CAMPAIGN OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DSFI_CAMPAIGN=<sfi_campaign> "
                        "-DWORK_DIR=<dir> -P sampling_equivalence.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(runs "")
foreach(threads 1 4)
    set(run t${threads})
    list(APPEND runs ${run})
    execute_process(
        COMMAND "${SFI_CAMPAIGN}" --figures fig4,fig7 --no-store --trials 4
                --dta-cycles 1024 --quiet --threads ${threads}
                --csv-dir ${run}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "sfi_campaign (${run}) exited ${code}\n"
                            "${out}\n${err}")
    endif()
endforeach()

# Every run must write the same CSV set as the first, byte for byte.
list(GET runs 0 reference)
file(GLOB csvs RELATIVE "${WORK_DIR}/${reference}"
     "${WORK_DIR}/${reference}/*.csv")
foreach(figure fig4 fig7)
    if(NOT "${csvs}" MATCHES "${figure}_")
        message(FATAL_ERROR "no ${figure} CSV in ${reference}: ${csvs}")
    endif()
endforeach()
foreach(run IN LISTS runs)
    file(GLOB run_csvs RELATIVE "${WORK_DIR}/${run}" "${WORK_DIR}/${run}/*.csv")
    if(NOT run_csvs STREQUAL csvs)
        message(FATAL_ERROR "CSV sets differ:\n  ${reference}: ${csvs}\n"
                            "  ${run}: ${run_csvs}")
    endif()
    foreach(name IN LISTS csvs)
        file(READ "${WORK_DIR}/${reference}/${name}" expected)
        file(READ "${WORK_DIR}/${run}/${name}" actual)
        if(NOT expected STREQUAL actual)
            message(FATAL_ERROR "${name} differs between ${reference} and ${run}")
        endif()
    endforeach()
endforeach()
# "scalar" is a bad flag value like any other: exit 2 before any
# simulation, naming the two modes.
execute_process(
    COMMAND "${SFI_CAMPAIGN}" --figures fig4 --fault-sampling scalar
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "must be one of batched, quantized")
    message(FATAL_ERROR "--fault-sampling scalar: exit ${code}, expected 2 "
                        "with the mode list\n${err}")
endif()

list(LENGTH csvs count)
message(STATUS "sampling equivalence: ${count} CSVs identical across "
               "1 and 4 threads")
