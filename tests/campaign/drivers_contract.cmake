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
#   fig3_sigma25            bench_fig3_pipeline --sigma 25: its noise range
#                           must differ from the default run's (the range
#                           spans the windows at +/- 2 sigma), and at
#                           --sigma 0 it must collapse onto the capture
#                           window
#   ext_razor_t1 / _t4      bench_ext_razor --trials 4 at --threads 1 and
#                           4: one digest, so the thread count cannot
#                           change a byte
#   voltage_t1 / _t4        bench_ablation_voltage --dta-cycles 256 at
#                           --threads 1 and 4, one digest
#   charlen                 bench_ablation_charlen --dta-cycles 256 (the
#                           ladder 16, 64, 256, 1,024 cycles)
#   cwc_compare.csv,        bench_cwc_compare --trials 4 --points 3
#   cwc_poff.csv,           --forensics-trials 4, cold into a fresh
#   cwc_coverage.csv        store (cwc/, traced into cwc/cwc_forensics/),
#                           then a warm rerun (cwc_warm/) that must be
#                           served wholly from the store ("store_misses":
#                           0 in its manifest). Both runs' joined CSVs
#                           hash to the pins, and every CSV of the two
#                           directories (the joined three and the five
#                           per-panel sweeps, whose mean_error column no
#                           joined CSV carries) is byte-identical warm
#                           and cold. scripts/check_cwc.py re-derives the
#                           coverage table by brute force,
#                           scripts/check_forensics.py checks the cold
#                           run's cwc_forensics/ artifact, and the
#                           forensics table sfi_trace prints for the cold
#                           run's ledger (five panels whose rows differ,
#                           with SDC and detections) equals the pinned
#                           lines
#   nocsv                   the same run under --no-store --no-csv: its
#                           ./cwc_compare.csv (the CSV fallback in the
#                           working directory) hashes to the same pin, so
#                           --no-csv cannot switch the forensic pass off
#
# and a bad numeric flag of a driver (bench_ext_razor's --coverage and
# --replay-penalty, bench_ablation_voltage's --alpha-spread,
# bench_fig3_pipeline's --sigma: malformed, non-finite or out of range)
# exits 2 with an "error: --<flag>" message and prints nothing on stdout.
#
# A digest moves only when a driver's output moves: re-record it with
# -DPRINT_DIGESTS=ON (prints every leg's digest and the table, compares
# neither) and
# say in the change log why the bytes changed. Runs under ctest (label
# "contract"); by hand:
#
#   cmake -DBENCH_DIR=build -DSFI_TRACE=build/sfi_trace -DPYTHON3=python3 \
#         -DCHECK_CWC=scripts/check_cwc.py \
#         -DCHECK_FORENSICS=scripts/check_forensics.py \
#         -DWORK_DIR=/tmp/drivers_contract \
#         -P tests/campaign/drivers_contract.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT BENCH_DIR OR NOT SFI_TRACE OR NOT PYTHON3 OR NOT CHECK_CWC OR
   NOT CHECK_FORENSICS OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DBENCH_DIR=<dir with bench_* drivers> "
                        "-DSFI_TRACE=<sfi_trace> "
                        "-DPYTHON3=<python3> -DCHECK_CWC=<check_cwc.py> "
                        "-DCHECK_FORENSICS=<check_forensics.py> "
                        "-DWORK_DIR=<dir> [-DPRINT_DIGESTS=ON] "
                        "-P drivers_contract.cmake")
endif()

set(expected_table1
    9f15102af5cddc0990980abd14332587285fce58a1cf1b2c82bd7e6be9da14b5)
set(expected_table2
    53c1ef2a32046f29f16bd13cfe262f095fcdf1da50a832f9cd647f8833c10d27)
set(expected_fig3
    b2e4b5b734dbfdab0e6320a6657ae04225ac3944e712e9692437443dec9a4240)
set(expected_fig3_sigma25
    4bc9cb45134ffb3ad5763c88ecd378c2525f536eea71d37df38bd7fcd7d08fa6)
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
# sfi_trace's forensics table for the cold cwc run, one list item per line.
set(expected_cwc_trace_table
    "forensics                 trials  masked  latent   sdc  hang  detected"
    "cwc_median_bareA              12       0       0     0    12         0"
    "cwc_median_bareB              12       0       0     2    10         0"
    "cwc_median_bareC              12       8       0     0     4         0"
    "cwc_median_razor              12       8       0     0     0         4"
    "cwc_median_cwc8               12       8       0     0     3         1")

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

# fig3's "[scaling]" line ends "capture window W ps @ Vref (noise range
# LO .. HI ps)".
set(scaling_regex
    "window ([0-9.]+) ps @ Vref \\(noise range ([0-9.]+) \\.\\. ([0-9.]+) ps\\)")
string(REGEX MATCH "${scaling_regex}" fig3_scaling "${out}")
set(fig3_range "${CMAKE_MATCH_2} .. ${CMAKE_MATCH_3}")
run_driver(out fig3_sigma25 "${BENCH_DIR}/bench_fig3_pipeline"
           --dta-cycles 1024 --cache cache_1024.bin --sigma 25)
check(fig3_sigma25 fig3_sigma25 "${out}")
string(REGEX MATCH "${scaling_regex}" sigma25_scaling "${out}")
if(NOT fig3_scaling OR NOT sigma25_scaling OR
   "${CMAKE_MATCH_2} .. ${CMAKE_MATCH_3}" STREQUAL fig3_range)
    string(APPEND failures "\n  fig3_sigma25: noise range "
           "${CMAKE_MATCH_2} .. ${CMAKE_MATCH_3} ignores --sigma (sigma 10 "
           "mV: ${fig3_range})")
endif()
run_driver(out fig3_sigma0 "${BENCH_DIR}/bench_fig3_pipeline"
           --dta-cycles 1024 --cache cache_1024.bin --sigma 0)
string(REGEX MATCH "${scaling_regex}" sigma0_scaling "${out}")
if(NOT sigma0_scaling OR NOT CMAKE_MATCH_1 STREQUAL CMAKE_MATCH_2 OR
   NOT CMAKE_MATCH_1 STREQUAL CMAKE_MATCH_3)
    string(APPEND failures "\n  fig3_sigma0: noise range ${CMAKE_MATCH_2} "
           ".. ${CMAKE_MATCH_3} around a ${CMAKE_MATCH_1} ps window")
endif()

# Bad numeric flags: exit 2, a diagnostic naming the flag, and nothing on
# stdout (so no partial report). The sizes keep a driver that wrongly
# accepts the flag quick.
function(check_rejects leg flag)
    execute_process(
        COMMAND ${ARGN} --trials 1 --dta-cycles 128 --cache cache_128.bin
                --threads 2
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2 OR NOT err MATCHES "error: --${flag} " OR
       NOT out STREQUAL "")
        string(APPEND failures "\n  ${leg}: exit ${code} (expected 2 with "
               "\"error: --${flag}\" and no stdout)\n${err}${out}")
        set(failures "${failures}" PARENT_SCOPE)
    endif()
endfunction()
check_rejects(razor_coverage_abc coverage "${BENCH_DIR}/bench_ext_razor"
              --coverage abc)
check_rejects(razor_coverage_nan coverage "${BENCH_DIR}/bench_ext_razor"
              --coverage nan)
check_rejects(razor_coverage_2 coverage "${BENCH_DIR}/bench_ext_razor"
              --coverage 2)
check_rejects(razor_penalty_negative replay-penalty
              "${BENCH_DIR}/bench_ext_razor" --replay-penalty -1)
check_rejects(voltage_spread_nan alpha-spread
              "${BENCH_DIR}/bench_ablation_voltage" --alpha-spread nan)
check_rejects(fig3_sigma_abc sigma "${BENCH_DIR}/bench_fig3_pipeline"
              --sigma abc)

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

set(cwc_compare "${BENCH_DIR}/bench_cwc_compare" --trials 4 --points 3
    --dta-cycles 1024 --cache cache_1024.bin --forensics-trials 4 --quiet)
file(MAKE_DIRECTORY "${WORK_DIR}/cwc/cwc_forensics")
run_driver(out cwc_cold ${cwc_compare} --store cwc_store.bin --csv-dir cwc
           --trace cwc/cwc_forensics/ledger.jsonl)
run_driver(out cwc_warm ${cwc_compare} --store cwc_store.bin
           --csv-dir cwc_warm)
file(READ "${WORK_DIR}/cwc_warm/cwc_compare_manifest.json" manifest)
if(NOT manifest MATCHES "\"store_hits\": [1-9][0-9]*, \"store_misses\": 0,")
    set(failures "${failures}\n  cwc_warm: not served wholly from the store")
endif()
foreach(dir cwc cwc_warm)
    foreach(csv cwc_compare.csv cwc_poff.csv cwc_coverage.csv)
        file(READ "${WORK_DIR}/${dir}/${csv}" text)
        check(${csv} ${dir}/${csv} "${text}")
    endforeach()
endforeach()
# Warm == cold for every CSV, the per-panel sweeps included.
file(GLOB cold_csvs RELATIVE "${WORK_DIR}/cwc" "${WORK_DIR}/cwc/*.csv")
file(GLOB warm_csvs RELATIVE "${WORK_DIR}/cwc_warm"
     "${WORK_DIR}/cwc_warm/*.csv")
list(LENGTH cold_csvs csv_count)
if(NOT cold_csvs STREQUAL warm_csvs OR csv_count LESS 8)
    string(APPEND failures "\n  cwc CSV sets differ or are short (8 "
           "expected):\n    cwc: ${cold_csvs}\n    cwc_warm: ${warm_csvs}")
else()
    foreach(csv IN LISTS cold_csvs)
        file(SHA256 "${WORK_DIR}/cwc/${csv}" cold_digest)
        file(SHA256 "${WORK_DIR}/cwc_warm/${csv}" warm_digest)
        if(NOT cold_digest STREQUAL warm_digest)
            string(APPEND failures
                   "\n  cwc_warm/${csv} differs from cwc/${csv}")
        endif()
    endforeach()
endif()
run_driver(out check_cwc ${PYTHON3} ${CHECK_CWC} cwc/cwc_coverage.csv)
run_driver(out check_forensics ${PYTHON3} ${CHECK_FORENSICS}
           cwc/cwc_forensics)

# sfi_trace finds forensics_points.csv next to the ledger and prints the
# per-panel outcome tallies: the lines from its "forensics" header to
# the blank line after the table.
run_driver(trace_out cwc_trace ${SFI_TRACE} cwc/cwc_forensics/ledger.jsonl)
string(REGEX MATCH "\nforensics [^\n]*\n([^\n]+\n)*" table "${trace_out}")
string(STRIP "${table}" table)
string(REPLACE "\n" ";" table_lines "${table}")
if(PRINT_DIGESTS)
    message(STATUS "cwc_trace forensics table:")
    foreach(line IN LISTS table_lines)
        message(STATUS "    \"${line}\"")
    endforeach()
elseif(NOT table_lines STREQUAL expected_cwc_trace_table)
    set(failures "${failures}\n  cwc_trace forensics table:\n${table}")
endif()

# --no-csv: the CSVs fall back to the working directory, and so must the
# forensic pass that feeds the detection columns.
run_driver(out nocsv ${cwc_compare} --no-store --no-csv)
file(READ "${WORK_DIR}/cwc_compare.csv" text)
check(cwc_compare.csv nocsv/cwc_compare.csv "${text}")

if(failures)
    message(FATAL_ERROR "driver output moved (masked outputs in "
                        "${WORK_DIR}):${failures}")
endif()
