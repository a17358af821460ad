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
#      only the forensic re-runs execute) write byte-identical artifacts;
#   d. pinned bytes: the SHA-256 of each of the eight artifacts of fx_t1
#      (razor(B) and razor(B,.9) included) and of fig1_fx equals the
#      digest recorded below, so a uniform change (to Razor's draw
#      stream, to the table writer) cannot pass a/c by moving every run
#      alike; and the forensics table sfi_trace prints for fig1_fx's
#      ledger (the run in b traces into the artifact directory) equals
#      the pinned lines.
# A pin moves only when the artifacts move: re-record with
# -DPRINT_DIGESTS=ON (prints every digest and the table, compares
# neither) and say in the change log why the bytes changed. Runs under
# ctest (label "contract"); by hand:
#
#   cmake -DSFI_FORENSICS=build/sfi_forensics -DSFI_CAMPAIGN=build/sfi_campaign \
#         -DSFI_TRACE=build/sfi_trace -DPYTHON3=python3 \
#         -DCHECK_FORENSICS=scripts/check_forensics.py \
#         -DWORK_DIR=/tmp/forensics_contract -P tests/campaign/forensics_contract.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT SFI_FORENSICS OR NOT SFI_CAMPAIGN OR NOT SFI_TRACE OR NOT PYTHON3 OR
   NOT CHECK_FORENSICS OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DSFI_FORENSICS=<sfi_forensics> "
                        "-DSFI_CAMPAIGN=<sfi_campaign> -DSFI_TRACE=<sfi_trace> "
                        "-DPYTHON3=<python3> "
                        "-DCHECK_FORENSICS=<check_forensics.py> "
                        "-DWORK_DIR=<dir> [-DPRINT_DIGESTS=ON] "
                        "-P forensics_contract.cmake")
endif()

set(expected_fx_t1_records.bin
    626194beab38a21a15ecc1d67569ecb31cdf3e948a8153f0a59e159b088fb15b)
set(expected_fx_t1_forensics.json
    530e3f45ad9bc17d904601436fbe749e94e44e6e33949abd722d73edf6d1087f)
set(expected_fx_t1_forensics_points.csv
    bfad89f1ea8e34d166a180b1171a7ad841d1166d77318b68eab094a514930cce)
set(expected_fx_t1_forensics_by_class.csv
    9dbb0cc1ca110fd97b60a8a5b6aa672903521128ad50c1fcc03ec3c98fe49906)
set(expected_fx_t1_forensics_by_bit.csv
    df9a298fcabc0d8326b926fb62b3415e8b690b7bfe327743d50515b3aae60734)
set(expected_fx_t1_forensics_by_pc.csv
    668bcf10c3259adfd04b13d97084163625c92cb3c4accd4e12e36586250296b5)
set(expected_fx_t1_forensics_by_class_detector.csv
    abce4e947fb2960f0ef397f5d6eea0f2304277301da71728d21bae140bbfe380)
set(expected_fx_t1_forensics_latency.csv
    4e4e6ef48181d963c453c63ce19b9fa05136f76df48aa9d16c4b53cb4964fa9e)
set(expected_fig1_fx_records.bin
    b52eb0dffb7e541dbab17c1c80197903f146688b6841dc123ea03abfba0d0dce)
set(expected_fig1_fx_forensics.json
    11beed49766592b068cbfae68d8b23252c8464026706e30f29064ed68ff0eed7)
set(expected_fig1_fx_forensics_points.csv
    346a9ffbf080c0e30576106c1b1118172b2537287ac1002699323198d25051fe)
set(expected_fig1_fx_forensics_by_class.csv
    920a73c0d3902ef46879c22138f71244bdfd906e909a073c917a09715a347dc9)
set(expected_fig1_fx_forensics_by_bit.csv
    8aefab5b3add362c5173fff6026e0bb86baf05bf53302047dd175443d2ba0efa)
set(expected_fig1_fx_forensics_by_pc.csv
    daf91b8e78c8d59ca597fa85fc164409960e486d884c42fb48a5dec48f54c2d8)
set(expected_fig1_fx_forensics_by_class_detector.csv
    394cb64369452f1833aa223502027622503203731d79b91a78897d04175e5e36)
set(expected_fig1_fx_forensics_latency.csv
    1e52e3866f350184604e4d60cc27ec773c703f79ad1b1ffb44ad3d3a8bf84cdd)
# sfi_trace's forensics table for fig1_fx, one list item per line.
set(expected_trace_table
    "forensics                 trials  masked  latent   sdc  hang  detected"
    "fig1_sigma0                   88      32       0     0    56         0"
    "fig1_sigma10                  88      32       0     0    56         0"
    "fig1_sigma25                  88      32       0     0    56         0")

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
set(artifact_names records.bin forensics.json forensics_points.csv
    forensics_by_class.csv forensics_by_bit.csv forensics_by_pc.csv
    forensics_by_class_detector.csv forensics_latency.csv)
list(LENGTH artifact_names artifacts)

# Compares the SHA-256 of every artifact in `dir` with its pin.
set(failures "")
function(check_pins dir)
    foreach(name IN LISTS artifact_names)
        file(SHA256 "${WORK_DIR}/${dir}/${name}" digest)
        if(PRINT_DIGESTS)
            message(STATUS "set(expected_${dir}_${name} ${digest})")
        elseif(NOT digest STREQUAL "${expected_${dir}_${name}}")
            set(failures "${failures}\n  ${dir}/${name}: ${digest} "
                         "(pinned ${expected_${dir}_${name}})")
        endif()
    endforeach()
    set(failures "${failures}" PARENT_SCOPE)
endfunction()
set(cycles --dta-cycles 1024 --cache cache.bin)

# a. The record stream and its tables across thread counts.
foreach(t 1 8)
    run_tool(out ${SFI_FORENSICS} --trials 40 ${cycles} --threads ${t}
             --forensics fx_t${t})
endforeach()
compare_files(fx_t1 fx_t8 "*" ${artifacts})
check_forensics(fx_t1)
check_forensics(fx_t8)
check_pins(fx_t1)

# b. Forensics on vs. off leaves the campaign CSVs byte-identical.
set(fig1 ${SFI_CAMPAIGN} --figures fig1 --trials 10 ${cycles} --quiet)
run_tool(out ${fig1} --no-store --threads 4 --csv-dir csv_plain)
file(MAKE_DIRECTORY "${WORK_DIR}/fig1_fx")
run_tool(out ${fig1} --no-store --threads 4 --csv-dir csv_fx
         --forensics fig1_fx --forensics-trials 8
         --trace fig1_fx/ledger.jsonl)
compare_files(csv_plain csv_fx "*.csv" 1)
check_forensics(fig1_fx)
check_pins(fig1_fx)

# sfi_trace finds forensics_points.csv next to the ledger and prints the
# per-panel outcome tallies: the lines from its "forensics" header to
# the blank line after the table.
run_tool(trace_out ${SFI_TRACE} fig1_fx/ledger.jsonl)
string(REGEX MATCH "\nforensics [^\n]*\n([^\n]+\n)*" table "${trace_out}")
string(STRIP "${table}" table)
string(REPLACE "\n" ";" table_lines "${table}")
if(PRINT_DIGESTS)
    message(STATUS "sfi_trace forensics table:")
    foreach(line IN LISTS table_lines)
        message(STATUS "    \"${line}\"")
    endforeach()
elseif(NOT table_lines STREQUAL expected_trace_table)
    set(failures "${failures}\n  sfi_trace forensics table:\n${table}")
endif()

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

if(failures)
    message(FATAL_ERROR "forensic artifacts moved (artifacts in "
                        "${WORK_DIR}):${failures}")
endif()
message(STATUS "forensics contract: sfi_forensics artifacts identical at "
               "threads 1 and 8; fig1 CSVs unchanged by --forensics; cold "
               "(threads 1) and warm (threads 4) artifacts identical; "
               "fx_t1, fig1_fx and the sfi_trace table match their pins")
