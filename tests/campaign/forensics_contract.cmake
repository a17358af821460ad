# The fault-forensics contract on the real sfi_forensics and sfi_campaign
# binaries, in a fresh directory at 1,024 DTA cycles:
#   a. sfi_forensics at --threads 1 and --threads 8 exits 0 both times,
#      every artifact file is byte-identical between the two, and
#      scripts/check_forensics.py accepts both directories;
#   b. forensics is observation-only: fig1's CSVs with --forensics match
#      a forensics-off run byte for byte, and the checker accepts the
#      campaign's artifacts;
#   c. warm == cold: a cold store run at --threads 1 and a warm rerun at
#      --threads 4 (0 store misses: every summary comes from the store,
#      only the forensic re-runs execute) write byte-identical artifacts.
# Runs under ctest (label "contract"); by hand:
#
#   cmake -DSFI_FORENSICS=build/sfi_forensics -DSFI_CAMPAIGN=build/sfi_campaign \
#         -DPYTHON3=python3 -DCHECK_FORENSICS=scripts/check_forensics.py \
#         -DWORK_DIR=/tmp/forensics_contract -P tests/campaign/forensics_contract.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT SFI_FORENSICS OR NOT SFI_CAMPAIGN OR NOT PYTHON3 OR
   NOT CHECK_FORENSICS OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DSFI_FORENSICS=<sfi_forensics> "
                        "-DSFI_CAMPAIGN=<sfi_campaign> -DPYTHON3=<python3> "
                        "-DCHECK_FORENSICS=<check_forensics.py> "
                        "-DWORK_DIR=<dir> -P forensics_contract.cmake")
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

# Byte-compares every file matching `pattern` in two dirs; the sets must
# match and hold at least `min_files` files.
function(compare_files dir_a dir_b pattern min_files)
    file(GLOB names RELATIVE "${WORK_DIR}/${dir_a}" "${WORK_DIR}/${dir_a}/${pattern}")
    file(GLOB other RELATIVE "${WORK_DIR}/${dir_b}" "${WORK_DIR}/${dir_b}/${pattern}")
    list(LENGTH names count)
    if(NOT names STREQUAL other OR count LESS min_files)
        message(FATAL_ERROR "file sets differ or are short (${min_files} "
                            "expected):\n  ${dir_a}: ${names}\n"
                            "  ${dir_b}: ${other}")
    endif()
    foreach(name IN LISTS names)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    "${WORK_DIR}/${dir_a}/${name}" "${WORK_DIR}/${dir_b}/${name}"
            RESULT_VARIABLE differs)
        if(NOT differs EQUAL 0)
            message(FATAL_ERROR "${name} differs between ${dir_a} and ${dir_b}")
        endif()
    endforeach()
endfunction()

function(check_forensics dir)
    run_tool(out ${PYTHON3} ${CHECK_FORENSICS} ${dir})
endfunction()

# Every artifact ForensicSink::write_artifacts writes.
set(artifacts 8)
set(cycles --dta-cycles 1024 --cache cache.bin)

# a. The record stream and its tables across thread counts.
foreach(t 1 8)
    run_tool(out ${SFI_FORENSICS} --trials 40 ${cycles} --threads ${t}
             --forensics fx_t${t})
endforeach()
compare_files(fx_t1 fx_t8 "*" ${artifacts})
check_forensics(fx_t1)
check_forensics(fx_t8)

# b. Forensics on vs. off leaves the campaign CSVs byte-identical.
set(fig1 ${SFI_CAMPAIGN} --figures fig1 --trials 10 ${cycles} --quiet)
run_tool(out ${fig1} --no-store --threads 4 --csv-dir csv_plain)
run_tool(out ${fig1} --no-store --threads 4 --csv-dir csv_fx
         --forensics fig1_fx --forensics-trials 8)
compare_files(csv_plain csv_fx "*.csv" 1)
check_forensics(fig1_fx)

# c. Warm == cold: the forensic pass re-runs store hits too.
run_tool(out ${fig1} --store store.bin --threads 1 --csv-dir csv_cold
         --forensics fx_cold --forensics-trials 8)
run_tool(warm_out ${fig1} --store store.bin --threads 4 --csv-dir csv_warm
         --forensics fx_warm --forensics-trials 8)
if(NOT warm_out MATCHES "\nstore: [1-9][0-9]* hits, 0 misses")
    message(FATAL_ERROR "warm rerun was not served from the store:\n"
                        "${warm_out}")
endif()
compare_files(fx_cold fx_warm "*" ${artifacts})
compare_files(csv_cold csv_warm "*.csv" 1)
check_forensics(fx_cold)

message(STATUS "forensics contract: sfi_forensics artifacts identical at "
               "threads 1 and 8; fig1 CSVs unchanged by --forensics; cold "
               "(threads 1) and warm (threads 4) artifacts identical")
