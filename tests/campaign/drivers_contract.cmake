# The bench-driver contract: the paper-artifact drivers that no other test
# runs print the same bytes as the commit their digests were recorded at.
# Each leg runs one driver at a tiny size in a fresh directory (own CDF
# cache per DTA length), masks the wall-clock fields (the "[core] …
# characterization X s" line, "[done in X s]" and charlen's "DTA time [s]"
# column) and compares the SHA-256 of the masked stdout, or of the CSVs
# the driver writes, with the digest pinned below:
#
#   table1, table2, fig3    stdout at their default flags (1,024 DTA
#                           cycles for fig3; table2 fixes its own 256)
#   ext_razor_t1 / _t4      bench_ext_razor --trials 4 at --threads 1 and
#                           4: one digest, so the thread count cannot
#                           change a byte
#   voltage_t1 / _t4        bench_ablation_voltage --dta-cycles 256 at
#                           --threads 1 and 4, one digest
#   charlen                 bench_ablation_charlen --dta-cycles 256 (the
#                           ladder 16, 64, 256, 1,024 cycles)
#   cwc_compare.csv,        bench_cwc_compare --trials 4 --points 3
#   cwc_poff.csv,           --forensics-trials 4 --no-store
#   cwc_coverage.csv
#
# A digest moves only when a driver's output moves: re-record it with
# -DPRINT_DIGESTS=ON (prints every leg's digest and compares nothing) and
# say in the change log why the bytes changed. Runs under ctest (label
# "contract"); by hand:
#
#   cmake -DBENCH_DIR=build -DWORK_DIR=/tmp/drivers_contract \
#         -P tests/campaign/drivers_contract.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT BENCH_DIR OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DBENCH_DIR=<dir with bench_* drivers> "
                        "-DWORK_DIR=<dir> [-DPRINT_DIGESTS=ON] "
                        "-P drivers_contract.cmake")
endif()

set(expected_table1
    9f15102af5cddc0990980abd14332587285fce58a1cf1b2c82bd7e6be9da14b5)
set(expected_table2
    53c1ef2a32046f29f16bd13cfe262f095fcdf1da50a832f9cd647f8833c10d27)
set(expected_fig3
    b2e4b5b734dbfdab0e6320a6657ae04225ac3944e712e9692437443dec9a4240)
set(expected_ext_razor
    a325f4724f70a27d6d7e7be151b8e152288e008e0ddb138bb6a1c992edb9522e)
set(expected_voltage
    9eb3223d51056fcf25fbf3bf6bb940a7742af137f8b16b0b816897f43603e0ee)
set(expected_charlen
    05dbbc69c6006b8cabe1946e9c1facd9b0a5b8227be16f140513c0e4f4e6cb1e)
set(expected_cwc_compare.csv
    38fbfcc5683b01d9c71be7c82b8ab0c9791664a8d6b7486c1d41b42c3902067c)
set(expected_cwc_poff.csv
    4fc3dc078eefaf8558caa70eb0b3372febebaf68b446d725129460d0607fd09a)
set(expected_cwc_coverage.csv
    caeeaaaa946d8e558e6f847ff7665c23b0f950068b4563b83486ed7920bf4e00)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs a driver in WORK_DIR and fails on a non-zero exit; the masked
# stdout lands in `out_var` and in WORK_DIR/<leg>.txt for inspection.
function(run_driver out_var leg)
    execute_process(
        COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "${leg}: ${ARGN} exited ${code}\n${out}\n${err}")
    endif()
    string(REGEX REPLACE "characterization [0-9.]+ s" "characterization <t> s"
           out "${out}")
    string(REGEX REPLACE "\\[done in [0-9.]+ s\\]" "[done in <t> s]"
           out "${out}")
    file(WRITE "${WORK_DIR}/${leg}.txt" "${out}")
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

set(failures "")
# Compares the digest of `text` with expected_<key>.
function(check key leg text)
    string(SHA256 digest "${text}")
    if(PRINT_DIGESTS)
        message(STATUS "${leg}: ${digest}")
    elseif(NOT digest STREQUAL "${expected_${key}}")
        set(failures
            "${failures}\n  ${leg}: ${digest} (pinned ${expected_${key}})"
            PARENT_SCOPE)
    endif()
endfunction()

run_driver(out table1 "${BENCH_DIR}/bench_table1")
check(table1 table1 "${out}")

run_driver(out table2 "${BENCH_DIR}/bench_table2" --cache cache_256.bin)
check(table2 table2 "${out}")

run_driver(out fig3 "${BENCH_DIR}/bench_fig3_pipeline" --dta-cycles 1024
           --cache cache_1024.bin)
check(fig3 fig3 "${out}")

foreach(threads 1 4)
    run_driver(out ext_razor_t${threads} "${BENCH_DIR}/bench_ext_razor"
               --trials 4 --dta-cycles 1024 --cache cache_1024.bin
               --threads ${threads})
    check(ext_razor ext_razor_t${threads} "${out}")

    run_driver(out voltage_t${threads} "${BENCH_DIR}/bench_ablation_voltage"
               --dta-cycles 256 --threads ${threads})
    check(voltage voltage_t${threads} "${out}")
endforeach()

run_driver(out charlen "${BENCH_DIR}/bench_ablation_charlen" --dta-cycles 256)
# The last column is the DTA wall time; its header is wider than any
# value, so masking the value leaves the column layout intact.
string(REGEX REPLACE "  [0-9]+\\.[0-9] *\n" "  <t>\n" out "${out}")
file(WRITE "${WORK_DIR}/charlen.txt" "${out}")
check(charlen charlen "${out}")

run_driver(out cwc_compare "${BENCH_DIR}/bench_cwc_compare" --trials 4
           --points 3 --dta-cycles 1024 --cache cache_1024.bin
           --forensics-trials 4 --no-store --quiet --csv-dir cwc)
foreach(csv cwc_compare.csv cwc_poff.csv cwc_coverage.csv)
    file(READ "${WORK_DIR}/cwc/${csv}" text)
    check(${csv} ${csv} "${text}")
endforeach()

if(failures)
    message(FATAL_ERROR "driver output moved (masked outputs in "
                        "${WORK_DIR}):${failures}")
endif()
