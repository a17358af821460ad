# The campaign contract on the real driver binary, over every panel kind
# (CDF, OpStream, voltage-axis, single-point model C): a cold and then a
# warm `sfi_campaign` run in a fresh directory, asserting that
#   1. the warm run is served entirely from the point store (0 misses),
#   2. it rewrites the cold run's CSVs and manifests byte for byte (the
#      manifest's volatile "run" line excepted), and
#   3. both runs print every panel title that `sfi_campaign --list` names;
#   4. `--dta-cycles 0` exits 2 with a diagnostic instead of characterizing
#      a core that never faults, and a `--threads` that is not a
#      non-negative integer exits 2 instead of running at some other count;
#   5. fig1 (models B and B+ inside ISS trials) resumes the same way at
#      `--threads 0`, one worker per hardware thread: a cold run into its
#      own store, then a warm rerun served wholly from it that rewrites
#      the cold run's artifacts byte for byte.
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
# Returns the artifact names in `out_var`.
function(compare_artifacts out_var cold_dir warm_dir)
    file(GLOB cold_files RELATIVE "${WORK_DIR}/${cold_dir}"
         "${WORK_DIR}/${cold_dir}/*")
    file(GLOB warm_files RELATIVE "${WORK_DIR}/${warm_dir}"
         "${WORK_DIR}/${warm_dir}/*")
    if(NOT cold_files STREQUAL warm_files)
        message(FATAL_ERROR "artifact sets differ:\n  ${cold_dir}: "
                            "${cold_files}\n  ${warm_dir}: ${warm_files}")
    endif()
    foreach(name IN LISTS cold_files)
        file(READ "${WORK_DIR}/${cold_dir}/${name}" cold_bytes)
        file(READ "${WORK_DIR}/${warm_dir}/${name}" warm_bytes)
        if(name MATCHES "_manifest\\.json$")
            string(REGEX REPLACE "\n  \"run\": [^\n]*" "" cold_bytes
                   "${cold_bytes}")
            string(REGEX REPLACE "\n  \"run\": [^\n]*" "" warm_bytes
                   "${warm_bytes}")
        endif()
        if(NOT cold_bytes STREQUAL warm_bytes)
            message(FATAL_ERROR "${name} differs between ${cold_dir} and "
                                "${warm_dir}")
        endif()
    endforeach()
    set(${out_var} "${cold_files}" PARENT_SCOPE)
endfunction()
compare_artifacts(cold_files cold_csv bench_csv)
foreach(campaign IN LISTS campaigns)
    if(NOT "${campaign}_manifest.json" IN_LIST cold_files)
        message(FATAL_ERROR "no manifest for ${campaign}: ${cold_files}")
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
# 4. An empty DTA kernel is a usage error.
execute_process(
    COMMAND "${SFI_CAMPAIGN}" --figures fig4 --dta-cycles 0 --trials 2
            --no-store --no-csv --quiet --cache zero_cycles_cache.bin
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "--dta-cycles must be positive" OR
   EXISTS "${WORK_DIR}/zero_cycles_cache.bin")
    message(FATAL_ERROR "--dta-cycles 0 exited ${code} (expected 2 and "
                        "no cache file):\n${err}")
endif()

# 5. So is a worker count that is not a non-negative integer.
foreach(threads abc -2)
    execute_process(
        COMMAND "${SFI_CAMPAIGN}" --figures fig4 --trials 1 --dta-cycles 128
                --threads=${threads} --no-store --no-csv --quiet
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2 OR
       NOT err MATCHES "error: --threads must be a non-negative integer")
        message(FATAL_ERROR "--threads=${threads} exited ${code} (expected 2 "
                            "and a diagnostic):\n${err}")
    endif()
endforeach()

# 6. fig1 at one worker per hardware thread, cold then warm from its own
# store.
set(fig1_flags --figures fig1 --trials 10 --dta-cycles 1024 --threads 0
               --store fig1_store.bin --quiet)
run_campaign(fig1_cold_out ${fig1_flags} --csv-dir fig1_cold)
run_campaign(fig1_warm_out ${fig1_flags} --csv-dir fig1_warm)
file(READ "${WORK_DIR}/fig1_warm/fig1_manifest.json" manifest)
if(NOT manifest MATCHES "\"store_hits\": [1-9][0-9]*, \"store_misses\": 0,")
    message(FATAL_ERROR "the warm fig1 run was not served wholly from the "
                        "store:\n${manifest}")
endif()
compare_artifacts(fig1_files fig1_cold fig1_warm)
if(NOT "${fig1_files}" MATCHES "fig1_sigma25\\.csv")
    message(FATAL_ERROR "fig1 wrote no sigma = 25 mV panel: ${fig1_files}")
endif()

list(LENGTH cold_files artifacts)
list(LENGTH fig1_files fig1_artifacts)
message(STATUS "campaign contract: ${warm_hits} warm hits, ${artifacts} "
               "identical artifacts, ${titles} panel titles; fig1 at "
               "--threads 0: ${fig1_artifacts} identical artifacts")
