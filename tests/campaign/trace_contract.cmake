# The run-ledger contract on the real sfi_campaign and sfi_trace binaries,
# in a fresh directory at 1,024 DTA cycles:
#   1. logical ledgers are byte-identical after their header line across
#      a --threads 1 run from an EMPTY CDF cache, a --threads 8 run with
#      the cache warm, and a warm-store rerun (only the empty-cache run
#      would show characterization spans leaking into logical mode);
#   2. tracing is observation-only: the CSVs and manifests (minus their
#      "run" line) match an untraced run byte for byte;
#   3. on a two-campaign wall-mode run from an empty cache at --threads 4,
#      sfi_trace's store line equals the driver's `store:` totals summed
#      over both campaigns, the one core both campaigns run on is
#      characterized once (one "characterize" span: the process keeps its
#      cores), every "dta_class" span closes inside a "characterize" or
#      "point" span (both kinds occur), and the Chrome
#      export passes scripts/check_trace.py; its CDF cache and artifacts
#      (fig4's operand-conditioned DTA included) are byte-identical to the
#      --threads 1 empty-cache run's, so characterization is
#      thread-count-free;
#   4. a ledger that cannot be written (--trace /dev/full) fails the run.
# Runs under ctest (label "contract"); by hand:
#
#   cmake -DSFI_CAMPAIGN=build/sfi_campaign -DSFI_TRACE=build/sfi_trace \
#         -DPYTHON3=python3 -DCHECK_TRACE=scripts/check_trace.py \
#         -DWORK_DIR=/tmp/trace_contract -P tests/campaign/trace_contract.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT SFI_CAMPAIGN OR NOT SFI_TRACE OR NOT PYTHON3 OR NOT CHECK_TRACE OR
   NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DSFI_CAMPAIGN=<sfi_campaign> "
                        "-DSFI_TRACE=<sfi_trace> -DPYTHON3=<python3> "
                        "-DCHECK_TRACE=<check_trace.py> -DWORK_DIR=<dir> "
                        "-P trace_contract.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs a tool in WORK_DIR and fails on a non-zero exit; stdout lands in
# `out_var`.
function(run_tool out_var)
    execute_process(
        COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "${ARGN} exited ${code}\n${out}\n${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The ledger body: everything after the volatile header line.
function(ledger_body path out_var)
    file(READ "${WORK_DIR}/${path}" text)
    string(FIND "${text}" "\n" eol)
    math(EXPR eol "${eol} + 1")
    string(SUBSTRING "${text}" ${eol} -1 body)
    set(${out_var} "${body}" PARENT_SCOPE)
endfunction()

# Compares every CSV and manifest (minus the "run" line) of two dirs.
function(compare_artifacts dir_a dir_b)
    file(GLOB names RELATIVE "${WORK_DIR}/${dir_a}" "${WORK_DIR}/${dir_a}/*")
    file(GLOB other RELATIVE "${WORK_DIR}/${dir_b}" "${WORK_DIR}/${dir_b}/*")
    if(NOT names STREQUAL other OR names STREQUAL "")
        message(FATAL_ERROR "artifact sets differ:\n  ${dir_a}: ${names}\n"
                            "  ${dir_b}: ${other}")
    endif()
    foreach(name IN LISTS names)
        file(READ "${WORK_DIR}/${dir_a}/${name}" a)
        file(READ "${WORK_DIR}/${dir_b}/${name}" b)
        string(REGEX REPLACE "\n  \"run\": [^\n]*" "" a "${a}")
        string(REGEX REPLACE "\n  \"run\": [^\n]*" "" b "${b}")
        if(NOT a STREQUAL b)
            message(FATAL_ERROR "${name} differs between ${dir_a} and ${dir_b}")
        endif()
    endforeach()
endfunction()

# `store: H hits, M misses` of a driver run.
function(driver_store out text)
    if(NOT text MATCHES "\nstore: ([0-9]+) hits, ([0-9]+) misses")
        message(FATAL_ERROR "no store summary in:\n${text}")
    endif()
    set(${out} "${CMAKE_MATCH_1}/${CMAKE_MATCH_2}" PARENT_SCOPE)
endfunction()

# A point runs on min(threads, trials) workers, so the trial count must be
# at least the widest thread count below (8) for every leg to run as wide
# as its --threads says.
set(campaign ${SFI_CAMPAIGN} --figures fig1,fig4 --trials 10 --dta-cycles 1024
             --quiet)

# 1. Logical ledgers: empty cache at 1 thread, warm cache at 8, warm store.
set(logical --trace-mode logical --cache logical_cache.bin)
run_tool(out ${campaign} ${logical} --threads 1 --store store_t1.bin
         --csv-dir csv_t1 --trace t1.jsonl)
run_tool(out ${campaign} ${logical} --threads 8 --store store_t8.bin
         --csv-dir csv_t8 --trace t8.jsonl)
run_tool(warm_out ${campaign} ${logical} --threads 8 --store store_t1.bin
         --csv-dir csv_warm --trace warm.jsonl)
driver_store(warm_store "${warm_out}")
if(NOT warm_store MATCHES "^[1-9][0-9]*/0$")
    message(FATAL_ERROR "warm rerun was not served from the store: "
                        "${warm_store} hits/misses")
endif()
ledger_body(t1.jsonl t1_body)
if(t1_body STREQUAL "")
    message(FATAL_ERROR "the logical ledger t1.jsonl has no events")
endif()
foreach(run t8 warm)
    ledger_body(${run}.jsonl body)
    if(NOT body STREQUAL t1_body)
        message(FATAL_ERROR "logical ledger ${run}.jsonl differs from "
                            "t1.jsonl (threads 1, empty CDF cache) after "
                            "the header line")
    endif()
endforeach()

# 2. Tracing never changes the artifacts.
run_tool(out ${campaign} --threads 8 --cache logical_cache.bin
         --store store_plain.bin --csv-dir csv_plain)
compare_artifacts(csv_t8 csv_plain)

# 3. A two-campaign wall run from an empty cache.
run_tool(wall_out ${campaign} --threads 4 --cache wall_cache.bin
         --store store_wall.bin --csv-dir csv_wall --trace wall.jsonl)
file(READ "${WORK_DIR}/logical_cache.bin" cache_t1 HEX)
file(READ "${WORK_DIR}/wall_cache.bin" cache_t4 HEX)
if(cache_t1 STREQUAL "" OR NOT cache_t1 STREQUAL cache_t4)
    message(FATAL_ERROR "the CDF cache characterized at --threads 4 "
                        "(wall_cache.bin) differs from the one at "
                        "--threads 1 (logical_cache.bin)")
endif()
compare_artifacts(csv_t1 csv_wall)
driver_store(driver_totals "${wall_out}")
run_tool(summary ${SFI_TRACE} wall.jsonl)
if(NOT summary MATCHES "\nstore +([0-9]+) hits / ([0-9]+) misses")
    message(FATAL_ERROR "sfi_trace printed no store line:\n${summary}")
endif()
if(NOT "${CMAKE_MATCH_1}/${CMAKE_MATCH_2}" STREQUAL driver_totals)
    message(FATAL_ERROR "sfi_trace reports ${CMAKE_MATCH_1}/${CMAKE_MATCH_2} "
                        "store hits/misses, the driver ${driver_totals}")
endif()
string(REGEX MATCHALL "\ncampaign " campaign_lines "${summary}")
list(LENGTH campaign_lines campaigns)
if(NOT campaigns EQUAL 2)
    message(FATAL_ERROR "sfi_trace listed ${campaigns} campaigns, not 2:\n"
                        "${summary}")
endif()
# Dispatch-lane B/E events nest; each dta_class must close directly inside
# a characterize (the core's classes) or a point (fig4's conditioned DTA).
# fig1 and fig4 share one core, built once for the process.
file(STRINGS "${WORK_DIR}/wall.jsonl" lines)
set(stack "")
set(characterized 0)
set(in_characterize 0)
set(in_point 0)
foreach(line IN LISTS lines)
    if(NOT line MATCHES "\"ph\":\"([BE])\",\"name\":\"([a-z_]+)\"")
        continue()
    endif()
    set(ph ${CMAKE_MATCH_1})
    set(name ${CMAKE_MATCH_2})
    if(ph STREQUAL "B")
        list(APPEND stack ${name})
        if(name STREQUAL "characterize")
            math(EXPR characterized "${characterized} + 1")
        endif()
        continue()
    endif()
    list(POP_BACK stack top)
    if(NOT top STREQUAL name)
        message(FATAL_ERROR "span ${name} ends while ${top} is open")
    endif()
    if(name STREQUAL "dta_class")
        set(parent "<top level>")
        if(NOT stack STREQUAL "")
            list(GET stack -1 parent)
        endif()
        if(parent STREQUAL "characterize")
            math(EXPR in_characterize "${in_characterize} + 1")
        elseif(parent STREQUAL "point")
            math(EXPR in_point "${in_point} + 1")
        else()
            message(FATAL_ERROR "a dta_class span closed inside ${parent}")
        endif()
    endif()
endforeach()
if(NOT stack STREQUAL "" OR in_characterize EQUAL 0 OR in_point EQUAL 0)
    message(FATAL_ERROR "wall ledger: unclosed spans [${stack}], "
                        "${in_characterize} dta_class spans in characterize, "
                        "${in_point} in point (both must be > 0)")
endif()
if(NOT characterized EQUAL 1)
    message(FATAL_ERROR "wall ledger: ${characterized} characterize spans "
                        "for the one core fig1 and fig4 run on, not 1")
endif()

run_tool(out ${SFI_TRACE} wall.jsonl --export-chrome wall_trace.json)
run_tool(out ${PYTHON3} ${CHECK_TRACE} wall_trace.json)

# 4. An unwritable ledger is an error, not a silent loss.
if(EXISTS /dev/full)
    execute_process(
        COMMAND ${SFI_CAMPAIGN} --figures fig2 --dta-cycles 1024 --quiet
                --cache logical_cache.bin --no-store --no-csv
                --trace /dev/full
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(code EQUAL 0 OR NOT err MATCHES "/dev/full")
        message(FATAL_ERROR "--trace /dev/full exited ${code} with no "
                            "diagnostic naming the ledger:\n${err}")
    endif()
endif()

message(STATUS "trace contract: logical ledgers identical (empty cache, "
               "threads 8, warm store); CDF cache and artifacts identical "
               "at threads 1 and 4; store ${driver_totals} hits/misses "
               "agree; ${in_characterize} + ${in_point} dta_class spans nest")
