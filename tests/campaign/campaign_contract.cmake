# The campaign contract on the real driver binary, over every panel kind
# (CDF, OpStream, voltage-axis, single-point model C): a cold and then a
# warm `sfi_campaign` run in a fresh directory, asserting that
#   1. the warm run is served entirely from the point store (0 misses),
#   2. it rewrites the cold run's CSVs and manifests byte for byte (the
#      manifest's volatile "run" line excepted), and
#   3. both runs print every panel title that `sfi_campaign --list` names.
# Runs under ctest (label "contract"); by hand:
#
#   cmake -DSFI_CAMPAIGN=build/sfi_campaign -DWORK_DIR=/tmp/contract \
#         -P tests/campaign/campaign_contract.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT SFI_CAMPAIGN OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DSFI_CAMPAIGN=<sfi_campaign> "
                        "-DWORK_DIR=<dir> -P campaign_contract.cmake")
endif()

set(figures fig2,fig4,fig7,ablation_noise_clip)
set(campaigns fig2 fig4 fig7 ablation_noise_clip)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_campaign out_var)
    execute_process(
        COMMAND "${SFI_CAMPAIGN}" ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "sfi_campaign ${ARGN} exited ${code}\n"
                            "${out}\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(run_flags --figures ${figures} --trials 2 --dta-cycles 1024 --threads 2
              --quiet)
run_campaign(cold_out ${run_flags})
file(RENAME "${WORK_DIR}/bench_csv" "${WORK_DIR}/cold_csv")
run_campaign(warm_out ${run_flags})

# 1. Every point of the warm run comes from the store.
foreach(run cold warm)
    if(NOT "${${run}_out}" MATCHES "\nstore: ([0-9]+) hits, ([0-9]+) misses")
        message(FATAL_ERROR "${run} run printed no store summary:\n"
                            "${${run}_out}")
    endif()
    set(${run}_hits ${CMAKE_MATCH_1})
    set(${run}_misses ${CMAKE_MATCH_2})
endforeach()
math(EXPR cold_points "${cold_hits} + ${cold_misses}")
if(cold_misses EQUAL 0 OR NOT warm_misses EQUAL 0 OR
   NOT warm_hits EQUAL cold_points)
    message(FATAL_ERROR "resume contract broken: cold ${cold_hits} hits / "
                        "${cold_misses} misses, warm ${warm_hits} hits / "
                        "${warm_misses} misses")
endif()

# 2. Byte-identical artifacts; manifests compare without their "run" line.
file(GLOB cold_files RELATIVE "${WORK_DIR}/cold_csv" "${WORK_DIR}/cold_csv/*")
file(GLOB warm_files RELATIVE "${WORK_DIR}/bench_csv" "${WORK_DIR}/bench_csv/*")
if(NOT cold_files STREQUAL warm_files)
    message(FATAL_ERROR "artifact sets differ:\n  cold: ${cold_files}\n"
                        "  warm: ${warm_files}")
endif()
foreach(campaign IN LISTS campaigns)
    if(NOT "${campaign}_manifest.json" IN_LIST cold_files)
        message(FATAL_ERROR "no manifest for ${campaign}: ${cold_files}")
    endif()
endforeach()
foreach(name IN LISTS cold_files)
    file(READ "${WORK_DIR}/cold_csv/${name}" cold_bytes)
    file(READ "${WORK_DIR}/bench_csv/${name}" warm_bytes)
    if(name MATCHES "_manifest\\.json$")
        string(REGEX REPLACE "\n  \"run\": [^\n]*" "" cold_bytes "${cold_bytes}")
        string(REGEX REPLACE "\n  \"run\": [^\n]*" "" warm_bytes "${warm_bytes}")
    endif()
    if(NOT cold_bytes STREQUAL warm_bytes)
        message(FATAL_ERROR "${name} differs between the cold and warm runs")
    endif()
endforeach()

# 3. Every panel title reaches stdout. `--list` prints each panel as
# "    <name>: <title>"; walk it line by line (titles are free text, so
# they are never split into a CMake list).
run_campaign(listing --list --figures ${figures})
set(rest "${listing}")
set(titles 0)
while(TRUE)
    string(FIND "${rest}" "\n    " at)
    if(at EQUAL -1)
        break()
    endif()
    math(EXPR at "${at} + 5")
    string(SUBSTRING "${rest}" ${at} -1 rest)
    string(FIND "${rest}" "\n" eol)
    string(SUBSTRING "${rest}" 0 ${eol} line)
    string(FIND "${line}" ": " colon)
    math(EXPR colon "${colon} + 2")
    string(SUBSTRING "${line}" ${colon} -1 title)
    foreach(run cold warm)
        string(FIND "${${run}_out}" "${title}\n" found)
        if(found EQUAL -1)
            message(FATAL_ERROR "${run} run did not print the panel title "
                                "\"${title}\":\n${${run}_out}")
        endif()
    endforeach()
    math(EXPR titles "${titles} + 1")
endwhile()
if(titles EQUAL 0)
    message(FATAL_ERROR "sfi_campaign --list named no panels:\n${listing}")
endif()
list(LENGTH cold_files artifacts)
message(STATUS "campaign contract: ${warm_hits} warm hits, ${artifacts} "
               "identical artifacts, ${titles} panel titles")
