# Checks the pass rules that benches pick for themselves: runs each bench
# at a tiny size, asserts the checks its tpstream-bench-v3 record
# declares, and gates crafted violations of those checks (each record
# gated against itself, so only its invariants can fail) through
# cmake/check_bench_regression.cmake:
#
#   bench_compiled, at the process's SIMD tier and with TPSTREAM_SIMD=off:
#     the batched-bytecode-over-interpreter floor is 4x where the batch
#     run dispatched SIMD kernels and 2x at scalar width; 3x fails the
#     former and passes the latter, 5x passes both
#   bench_durability: every run's verified flag, kEveryRecord's barrier
#     per record, kEveryBytes' group commit (<= 1 barrier per 2 records),
#     deltas <= 50% of a full snapshot, non-empty full snapshots; the
#     fresh record passes, and an unverified replay, a lost barrier, a
#     collapsed group commit, a fat delta and empty snapshots each fail
#
# Usage:
#   cmake -DGATE_SCRIPT=<check_bench_regression.cmake> -DBENCH_DIR=<dir>
#         -DWORK_DIR=<dir> -P tests/bench_records_test.cmake
cmake_minimum_required(VERSION 3.19)

if(NOT GATE_SCRIPT OR NOT BENCH_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DGATE_SCRIPT, -DBENCH_DIR and -DWORK_DIR")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs <bench> with <args> under the environment edit <env> (for
# `cmake -E env`) and reads its record into <out>.
function(run_bench bench env out)
  set(json "${WORK_DIR}/${bench}.json")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env ${env} "${BENCH_DIR}/${bench}" ${ARGN}
            --json=${json}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out_text ERROR_VARIABLE out_text)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} ${ARGN} failed (rc=${rc}):\n${out_text}")
  endif()
  file(READ "${json}" doc)
  set(${out} "${doc}" PARENT_SCOPE)
endfunction()

# Writes <doc> with each (run, metric, value) triple of ARGN set, gates
# it against itself, and asserts the verdict ("pass" or "fail") and that
# the gate's output matches every regex in the list <patterns>.
function(gate_crafted case verdict doc patterns)
  set(edits ${ARGN})
  while(edits)
    list(POP_FRONT edits run metric value)
    string(JSON doc SET "${doc}" runs "${run}" "${metric}" "${value}")
  endwhile()
  set(path "${WORK_DIR}/${case}.json")
  file(WRITE "${path}" "${doc}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -DCURRENT=${path} -DBASELINE=${path}
            -P "${GATE_SCRIPT}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(got fail)
  if(rc EQUAL 0)
    set(got pass)
  endif()
  foreach(pattern IN LISTS patterns)
    if(NOT out MATCHES "${pattern}")
      set(got "output not matching '${pattern}'")
    endif()
  endforeach()
  if(got STREQUAL verdict)
    message(STATUS "${case}: OK (${verdict})")
  else()
    message(SEND_ERROR "${case}: expected ${verdict}, got ${got} "
                       "(rc=${rc}):\n${out}${err}")
  endif()
endfunction()

# bench_compiled: the floor follows the tier the batch run dispatched to.
set(ABLATION "deriver.bytecode_batch.events_per_sec / deriver.interpreter.events_per_sec")
foreach(tier process off)
  set(env --unset=TPSTREAM_SIMD)
  if(tier STREQUAL "off")
    set(env TPSTREAM_SIMD=off)
  endif()
  run_bench(bench_compiled ${env} doc --horizon=20000 --repeats=1)
  string(JSON simd GET "${doc}" simd_level)
  if(tier STREQUAL "off" AND NOT simd STREQUAL "off")
    message(SEND_ERROR "TPSTREAM_SIMD=off: batch run dispatched to ${simd}")
  endif()
  set(floor 400)
  set(verdict_3x fail)
  if(simd STREQUAL "off")
    set(floor 200)
    set(verdict_3x pass)
  endif()
  set(interp deriver.interpreter events_per_sec 1000000)
  gate_crafted(compiled-${tier}-${simd}-3x ${verdict_3x} "${doc}"
               "${ABLATION}: [^\n]*\\(300% vs -, bound >= ${floor}%\\)"
               ${interp} deriver.bytecode_batch events_per_sec 3000000)
  gate_crafted(compiled-${tier}-${simd}-5x pass "${doc}"
               "${ABLATION}: ok \\(500% vs -, bound >= ${floor}%\\)"
               ${interp} deriver.bytecode_batch events_per_sec 5000000)
endforeach()

# bench_durability: the fresh record declares and passes every check;
# each crafted violation fails its own.
run_bench(bench_durability "" doc
          --events=2000 --keys=64 --interval=200 --repeats=1)
string(JSON batches GET "${doc}" runs append.every_record batches)
string(JSON full GET "${doc}" runs incremental.k8 bytes_per_full)
math(EXPR lost "${batches} - 1")
math(EXPR fat "${full} * 3 / 5 + 1")
set(healthy
    "append.every_record.fsyncs / append.every_record.batches: ok [^\n]*bound >= 100%\\)"
    "append.every_64k.fsyncs / append.every_64k.batches: ok [^\n]*bound <= 50%\\)"
    "bytes_per_delta / incremental.k8.bytes_per_full: ok [^\n]*bound <= 50%\\)"
    "incremental.k8.bytes_per_full: ok [^\n]*bound >= 100%\\)"
    "incremental.k8.restore_verified: ok [^\n]*bound >= 100% <= 100%\\)")
foreach(run append.every_record append.every_64k append.interval
            recovery.n10000 recovery.n100000)
  list(APPEND healthy "${run}.replay_verified: ok [^\n]*bound >= 100% <= 100%\\)")
endforeach()
gate_crafted(durability-fresh pass "${doc}" "${healthy}")
gate_crafted(durability-unverified-replay fail "${doc}"
             "append.every_64k.replay_verified: FAIL: below min"
             append.every_64k replay_verified 0)
gate_crafted(durability-lost-barrier fail "${doc}"
             "append.every_record.batches: FAIL: below min"
             append.every_record fsyncs ${lost})
gate_crafted(durability-no-group-commit fail "${doc}"
             "append.every_64k.batches: FAIL: above max"
             append.every_64k fsyncs ${batches})
gate_crafted(durability-fat-delta fail "${doc}"
             "incremental.k8.bytes_per_full: FAIL: above max"
             incremental.k8 bytes_per_delta ${fat})
gate_crafted(durability-empty-snapshots fail "${doc}"
             "incremental.k8.bytes_per_full: FAIL: below min"
             incremental.k8 bytes_per_full 0 incremental.k8 bytes_per_delta 0)
