# The sampling-equivalence contract on the real sfi_campaign binary:
#
#   1. the same campaigns at 1 and 4 worker threads write byte-identical
#      CSVs. fig1 runs models B and B+ inside ISS trials; fig4 runs model
#      C on raw ALU op streams (one long stream per point, where most
#      draws open a Bernoulli interleave on the noise stream); fig7 runs
#      model C inside ISS trials at sigma = 10 and 25 mV, fanned out over
#      the worker pool. (That batched draws equal the one-draw-per-op
#      reference is proven against the oracles in tests/testing/ by the fi
#      and mc sampling suites.)
#   2. the streams do not move. The 1-thread run's fig1 CSVs (model B at
#      sigma 0, B+ at 10 and 25 mV on the grid around B+'s first fault,
#      where the safe-row pretest's edge decides most draws) and, under
#      --fault-sampling quantized, fig1 (B-q) and fig4 (C-q) write CSVs
#      whose SHA-256 digests are pinned below. Nothing else pins a B-q or
#      C-q byte: the sampling suites only check that quantized runs are
#      deterministic and differ from batched ones.
#   3. "--fault-sampling scalar" exits 2 before any simulation, naming
#      the two modes.
#
# A digest moves only when a stream moves: re-record them with
# -DPRINT_DIGESTS=ON (prints every pinned CSV's digest, compares none) and
# say in the change log why the bytes changed. Runs under ctest (label
# "contract"); by hand:
#
#   cmake -DSFI_CAMPAIGN=build/sfi_campaign -DWORK_DIR=/tmp/sampling_eq \
#         -P tests/campaign/sampling_equivalence.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT SFI_CAMPAIGN OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DSFI_CAMPAIGN=<sfi_campaign> "
                        "-DWORK_DIR=<dir> [-DPRINT_DIGESTS=ON] "
                        "-P sampling_equivalence.cmake")
endif()

# The batched fig1 streams of the 1-thread run: model B, then B+ at
# sigma 10 and 25 mV.
set(expected_t1_fig1_sigma0.csv
    b008c40903914342b511370f8cc266ccb32e848491060213b09c8bb324806612)
set(expected_t1_fig1_sigma10.csv
    60dc3474e39b6a183eb7d260ef740c24ec4e406d5310eaf9f50fb4afbb80a1f7)
set(expected_t1_fig1_sigma25.csv
    c56b60673ced9713a6d91d1607c45cd1f58d10dc55725b3d5ee7e87ac60e3c64)
# Under --fault-sampling quantized: fig1_sigma0 is model B (no noise, so
# no draw to quantize); the other five are B-q and C-q streams.
set(expected_q_fig1_sigma0.csv
    b008c40903914342b511370f8cc266ccb32e848491060213b09c8bb324806612)
set(expected_q_fig1_sigma10.csv
    a99ea86f4390c4593d1ed2910a2a7de752405262f8af0da6621b8389b79911dc)
set(expected_q_fig1_sigma25.csv
    d615c324de70c4e52482dd2bca79ff7eaeaa659b8b7dca95787643389ea9f922)
set(expected_q_fig4_add16.csv
    c0f46e0c29081366d9b5538ac958022cb03cc34a52289b2af09af126cea5b3c2)
set(expected_q_fig4_add32.csv
    a98e8dfb1b509de0c32442334374d35e0435b9dd78251808539993ec0971c3ad)
set(expected_q_fig4_mul32.csv
    95057f92c9a3bda4ebab8a13e75987c9c810ddbd7b1179626a2c290c7f600bec)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_campaign run)
    execute_process(
        COMMAND "${SFI_CAMPAIGN}" --no-store --trials 4 --dta-cycles 1024
                --quiet --csv-dir ${run} ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "sfi_campaign (${run}) exited ${code}\n"
                            "${out}\n${err}")
    endif()
endfunction()

# 1. Batched sampling at 1 and 4 threads.
set(runs "")
foreach(threads 1 4)
    set(run t${threads})
    list(APPEND runs ${run})
    run_campaign(${run} --figures fig1,fig4,fig7 --threads ${threads})
endforeach()

# Every run must write the same CSV set as the first, byte for byte.
list(GET runs 0 reference)
file(GLOB csvs RELATIVE "${WORK_DIR}/${reference}"
     "${WORK_DIR}/${reference}/*.csv")
foreach(figure fig1 fig4 fig7)
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

# 2. The streams against their pins: expected_<run>_<name> pins
# <run>/<name>, and every CSV of the quantized run q has a pin.
run_campaign(q --figures fig1,fig4 --threads 4 --fault-sampling quantized)
file(GLOB quantized_csvs RELATIVE "${WORK_DIR}/q" "${WORK_DIR}/q/*.csv")
set(failures "")
set(pinned 0)
foreach(name IN LISTS quantized_csvs)
    if(NOT DEFINED expected_q_${name} AND NOT PRINT_DIGESTS)
        string(APPEND failures "\n  q/${name}: no pinned digest")
    endif()
endforeach()
get_cmake_property(variables VARIABLES)
foreach(variable IN LISTS variables)
    if(NOT variable MATCHES "^expected_(t1|q)_(.+)$")
        continue()
    endif()
    set(path "${CMAKE_MATCH_1}/${CMAKE_MATCH_2}")
    if(NOT EXISTS "${WORK_DIR}/${path}")
        string(APPEND failures "\n  ${path}: not written")
        continue()
    endif()
    file(SHA256 "${WORK_DIR}/${path}" digest)
    if(PRINT_DIGESTS)
        message(STATUS "set(${variable}\n    ${digest})")
    elseif(NOT digest STREQUAL "${${variable}}")
        string(APPEND failures "\n  ${path}: ${digest} (pinned ${${variable}})")
    else()
        math(EXPR pinned "${pinned} + 1")
    endif()
endforeach()
if(failures AND NOT PRINT_DIGESTS)
    message(FATAL_ERROR "pinned CSVs moved (outputs in ${WORK_DIR}):"
                        "${failures}")
endif()

# 3. "scalar" is a bad flag value like any other: exit 2 before any
# simulation, naming the two modes. (The tiny sizes only keep a binary
# that wrongly accepts it quick.)
execute_process(
    COMMAND "${SFI_CAMPAIGN}" --figures fig4 --fault-sampling scalar
            --trials 1 --dta-cycles 128 --no-store --no-csv --quiet
            --cache scalar_cache.bin
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
               "1 and 4 threads, ${pinned} CSVs at their pins")
