# The adaptive-sampling contract on the real sfi_campaign binary: the
# adaptive engine must actually save trials. fig1 runs once at a fixed 40
# trials per point and once with --sampling ci (target half-width 0.12,
# at most 40 trials, batches of 10), each into its own store, and
# scripts/check_sampling_speedup.py asserts that the adaptive run spent
# fewer trials in total, that every panel's adaptive PoFF lies within one
# 0.5 MHz grid step of the fixed run's, and that both runs completed. The
# checker writes BENCH_sampling.json (trial budgets, wall clock, per-panel
# PoFFs) into WORK_DIR. Runs under ctest (label "contract"); by hand:
#
#   cmake -DSFI_CAMPAIGN=build/sfi_campaign -DPYTHON3=python3 \
#         -DCHECK_SAMPLING_SPEEDUP=scripts/check_sampling_speedup.py \
#         -DWORK_DIR=/tmp/sampling_speedup -P tests/campaign/sampling_speedup.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT SFI_CAMPAIGN OR NOT PYTHON3 OR NOT CHECK_SAMPLING_SPEEDUP OR
   NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DSFI_CAMPAIGN=<sfi_campaign> "
                        "-DPYTHON3=<python3> "
                        "-DCHECK_SAMPLING_SPEEDUP=<check_sampling_speedup.py> "
                        "-DWORK_DIR=<dir> -P sampling_speedup.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run out_var)
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

set(fig1 "${SFI_CAMPAIGN}" --figures fig1 --trials 40 --dta-cycles 1024
    --threads 0 --quiet)
run(out ${fig1} --store fixed_store.bin --csv-dir fixed_csv)
run(out ${fig1} --sampling ci --ci-target 0.12 --max-trials 40 --batch 10
    --store ci_store.bin --csv-dir ci_csv)
run(out ${PYTHON3} ${CHECK_SAMPLING_SPEEDUP} fixed_csv/fig1_manifest.json
    ci_csv/fig1_manifest.json BENCH_sampling.json 0.5)
string(STRIP "${out}" out)
string(REGEX MATCH "[^\n]*$" summary "${out}")
message(STATUS "${summary}")
