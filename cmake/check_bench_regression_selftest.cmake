# Self-test for cmake/check_bench_regression.cmake, run as a ctest entry
# (tests/CMakeLists.txt). The gate guards every committed perf baseline,
# so its own number parsing and threshold arithmetic are pinned here with
# crafted documents:
#
#   * a scientific-notation baseline ("1.5e3") must parse as 1500, not
#     1000 — the historical to_micro bug dropped the mantissa fraction,
#     silently loosening any gate fed such a baseline
#   * a sub-milli baseline (0.0005 evt/s) must still gate — the
#     historical "/ 1000 * 100" integer form truncated both sides to
#     zero, making the comparison vacuously pass
#   * a zero baseline p99 must skip the latency gate (no divide, no
#     spurious failure) and a zero bytes baseline must still admit the
#     absolute slack
#   * restore_verified = 0 must fail on its own
#   * an unchanged document must pass
#   * the compiled-v2 ablation floor must switch on the fresh document's
#     simd_level: 4x when the batch run dispatched SIMD kernels, 2x on
#     scalar-fallback machines
#   * the durability invariants (replay/restore verified flags, the
#     sync-policy fsync accounting, the delta-vs-full byte ratio) must
#     each gate from the fresh document alone
#
# Usage:
#   cmake -DGATE_SCRIPT=<check_bench_regression.cmake> -DWORK_DIR=<dir> \
#         -P cmake/check_bench_regression_selftest.cmake
cmake_minimum_required(VERSION 3.19)

if(NOT GATE_SCRIPT OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DGATE_SCRIPT=<gate.cmake> -DWORK_DIR=<dir>")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Writes a single-run tpstream-bench-checkpoint-v1 document.
function(write_doc path eps bpc rv p99)
  file(WRITE "${path}" "{
  \"schema\": \"tpstream-bench-checkpoint-v1\",
  \"runs\": {
    \"operator.steady\": {
      \"events\": 1000,
      \"matches\": 10,
      \"checkpoints\": 4,
      \"events_per_sec\": ${eps},
      \"bytes_per_checkpoint\": ${bpc},
      \"restore_verified\": ${rv},
      \"pause_ns\": {
        \"p50\": 1,
        \"p95\": ${p99},
        \"p99\": ${p99},
        \"max\": ${p99}
      }
    }
  }
}
")
endfunction()

set(selftest_failures 0)

# Runs the gate on (current, baseline) and asserts the verdict.
function(run_case case_name current baseline expect)
  execute_process(
    COMMAND "${CMAKE_COMMAND}"
            -DCURRENT=${current} -DBASELINE=${baseline}
            -P "${GATE_SCRIPT}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(expect STREQUAL "pass" AND NOT rc EQUAL 0)
    message(SEND_ERROR
            "${case_name}: expected the gate to pass but it failed "
            "(rc=${rc}):\n${err}")
    math(EXPR selftest_failures "${selftest_failures} + 1")
    set(selftest_failures ${selftest_failures} PARENT_SCOPE)
  elseif(expect STREQUAL "fail" AND rc EQUAL 0)
    message(SEND_ERROR
            "${case_name}: expected the gate to fail but it passed:\n${out}")
    math(EXPR selftest_failures "${selftest_failures} + 1")
    set(selftest_failures ${selftest_failures} PARENT_SCOPE)
  else()
    message(STATUS "${case_name}: OK (${expect})")
  endif()
endfunction()

# Case 1: unchanged document passes.
write_doc("${WORK_DIR}/base.json" 100000.0 630.2 1 5000)
run_case("unchanged-passes" "${WORK_DIR}/base.json" "${WORK_DIR}/base.json"
         pass)

# Case 2: scientific-notation baseline keeps its mantissa fraction.
# Baseline 1.5e3 = 1500 evt/s; current 800 is below the -30% floor
# (1050). The historical parser read 1000, putting the floor at 700 and
# letting the regression through.
write_doc("${WORK_DIR}/sci_base.json" 1.5e3 630.0 1 5000)
write_doc("${WORK_DIR}/sci_cur.json" 800.0 630.0 1 5000)
run_case("scinot-mantissa-gates" "${WORK_DIR}/sci_cur.json"
         "${WORK_DIR}/sci_base.json" fail)
# ...while 1200 evt/s (above the 1050 floor) passes.
write_doc("${WORK_DIR}/sci_ok.json" 1200.0 630.0 1 5000)
run_case("scinot-within-floor" "${WORK_DIR}/sci_ok.json"
         "${WORK_DIR}/sci_base.json" pass)

# Case 3: near-zero baselines still gate. 0.0001 evt/s against a 0.0005
# baseline is a 5x regression; the historical integer pre-division
# truncated both sides to zero and compared 0 >= 0.
write_doc("${WORK_DIR}/tiny_base.json" 0.0005 630.0 1 5000)
write_doc("${WORK_DIR}/tiny_cur.json" 0.0001 630.0 1 5000)
run_case("near-zero-baseline-gates" "${WORK_DIR}/tiny_cur.json"
         "${WORK_DIR}/tiny_base.json" fail)

# Case 4: a zero baseline p99 skips the pause gate instead of failing or
# dividing by zero, whatever the current p99 is.
write_doc("${WORK_DIR}/zero_p99_base.json" 100000.0 630.0 1 0)
write_doc("${WORK_DIR}/zero_p99_cur.json" 100000.0 630.0 1 999999)
run_case("zero-baseline-p99-skips" "${WORK_DIR}/zero_p99_cur.json"
         "${WORK_DIR}/zero_p99_base.json" pass)

# Case 5: a zero bytes baseline admits growth within the absolute slack
# (4096 bytes) — and fails beyond it.
write_doc("${WORK_DIR}/zero_bpc_base.json" 100000.0 0 1 5000)
write_doc("${WORK_DIR}/zero_bpc_ok.json" 100000.0 4000.0 1 5000)
run_case("zero-bytes-baseline-slack" "${WORK_DIR}/zero_bpc_ok.json"
         "${WORK_DIR}/zero_bpc_base.json" pass)
write_doc("${WORK_DIR}/zero_bpc_bad.json" 100000.0 5000.0 1 5000)
run_case("zero-bytes-baseline-ceiling" "${WORK_DIR}/zero_bpc_bad.json"
         "${WORK_DIR}/zero_bpc_base.json" fail)

# Case 6: an unverified restore fails on its own, all else equal.
write_doc("${WORK_DIR}/unverified.json" 100000.0 630.2 0 5000)
run_case("unverified-restore-fails" "${WORK_DIR}/unverified.json"
         "${WORK_DIR}/base.json" fail)

# Case 7: checkpoint pause p99 regression beyond the 5x factor fails.
write_doc("${WORK_DIR}/slow_p99.json" 100000.0 630.2 1 26000)
run_case("pause-p99-gates" "${WORK_DIR}/slow_p99.json"
         "${WORK_DIR}/base.json" fail)

# Writes a three-run tpstream-bench-compiled-v2 document where the batch
# mode runs at `batch_eps` with SIMD tier `simd` over a 1000000 evt/s
# interpreter.
function(write_compiled_doc path batch_eps simd)
  set(runs "")
  foreach(spec
          "deriver.interpreter;1000000.0;off"
          "deriver.bytecode_batch;${batch_eps};${simd}"
          "deriver.bytecode_batch_scalar;2500000.0;off")
    list(GET spec 0 rname)
    list(GET spec 1 reps)
    list(GET spec 2 rsimd)
    if(NOT runs STREQUAL "")
      string(APPEND runs ",\n")
    endif()
    string(APPEND runs "    \"${rname}\": {
      \"events\": 1000,
      \"definitions\": 16,
      \"compiled_programs\": 15,
      \"simd_level\": \"${rsimd}\",
      \"elapsed_s\": 1.0,
      \"events_per_sec\": ${reps},
      \"situations\": 42,
      \"speedup_vs_interpreter\": 1.0
    }")
  endforeach()
  file(WRITE "${path}" "{
  \"schema\": \"tpstream-bench-compiled-v2\",
  \"cpus\": 4,
  \"runs\": {
${runs}
  }
}
")
endfunction()

# Case 8: the compiled ablation floor follows the fresh simd_level. At
# 3x the interpreter, a SIMD-dispatching run misses the raised 4x floor
# while a scalar-fallback run clears its 2x floor; at 5x the SIMD run
# passes too. The baseline carries the same rates, so the per-run
# throughput floors never interfere with the verdict under test.
write_compiled_doc("${WORK_DIR}/compiled_simd_3x.json" 3000000.0 "avx2")
run_case("compiled-simd-floor-gates" "${WORK_DIR}/compiled_simd_3x.json"
         "${WORK_DIR}/compiled_simd_3x.json" fail)
write_compiled_doc("${WORK_DIR}/compiled_scalar_3x.json" 3000000.0 "off")
run_case("compiled-scalar-floor-passes" "${WORK_DIR}/compiled_scalar_3x.json"
         "${WORK_DIR}/compiled_scalar_3x.json" pass)
write_compiled_doc("${WORK_DIR}/compiled_simd_5x.json" 5000000.0 "avx2")
run_case("compiled-simd-floor-passes" "${WORK_DIR}/compiled_simd_5x.json"
         "${WORK_DIR}/compiled_simd_5x.json" pass)

# Writes a four-run tpstream-bench-durability-v1 document: two append
# runs (3125 batches each, fsync counts as given), a recovery run whose
# replay_verified flag is `rv`, and an incremental run with a 100000-byte
# mean full snapshot and `bpd`-byte mean deltas.
function(write_durability_doc path er_fsyncs e64_fsyncs rv bpd)
  file(WRITE "${path}" "{
  \"schema\": \"tpstream-bench-durability-v1\",
  \"runs\": {
    \"append.every_record\": {
      \"events\": 200000,
      \"events_per_sec\": 1000000.0,
      \"batches\": 3125,
      \"fsyncs\": ${er_fsyncs},
      \"appended_bytes\": 9000000,
      \"replay_verified\": 1
    },
    \"append.every_64k\": {
      \"events\": 200000,
      \"events_per_sec\": 2000000.0,
      \"batches\": 3125,
      \"fsyncs\": ${e64_fsyncs},
      \"appended_bytes\": 9000000,
      \"replay_verified\": 1
    },
    \"recovery.n10000\": {
      \"events\": 10000,
      \"events_per_sec\": 3000000.0,
      \"recovery_ms\": 3.0,
      \"replayed_events\": 9000,
      \"replay_verified\": ${rv}
    },
    \"incremental.k8\": {
      \"events\": 200000,
      \"events_per_sec\": 500000.0,
      \"checkpoints\": 40,
      \"full_checkpoints\": 5,
      \"delta_checkpoints\": 35,
      \"bytes_per_full\": 100000.0,
      \"bytes_per_delta\": ${bpd},
      \"restore_verified\": 1
    }
  }
}
")
endfunction()

# Case 9: the durability invariants. An unchanged healthy document
# passes; an unverified replay fails on its own; kEveryRecord reporting
# fewer barriers than records fails; kEveryBytes degenerating to
# per-record barriers fails; deltas ballooning past half a full
# snapshot fail the incremental invariant.
write_durability_doc("${WORK_DIR}/dur_base.json" 3126 130 1 8000.0)
run_case("durability-unchanged-passes" "${WORK_DIR}/dur_base.json"
         "${WORK_DIR}/dur_base.json" pass)
write_durability_doc("${WORK_DIR}/dur_unverified.json" 3126 130 0 8000.0)
run_case("durability-unverified-replay-fails" "${WORK_DIR}/dur_unverified.json"
         "${WORK_DIR}/dur_base.json" fail)
write_durability_doc("${WORK_DIR}/dur_lost_barrier.json" 3124 130 1 8000.0)
run_case("durability-every-record-barrier-fails"
         "${WORK_DIR}/dur_lost_barrier.json" "${WORK_DIR}/dur_base.json" fail)
write_durability_doc("${WORK_DIR}/dur_no_grouping.json" 3126 3125 1 8000.0)
run_case("durability-group-commit-collapse-fails"
         "${WORK_DIR}/dur_no_grouping.json" "${WORK_DIR}/dur_base.json" fail)
write_durability_doc("${WORK_DIR}/dur_fat_delta.json" 3126 130 1 60000.0)
run_case("durability-delta-ratio-fails" "${WORK_DIR}/dur_fat_delta.json"
         "${WORK_DIR}/dur_base.json" fail)

if(selftest_failures GREATER 0)
  message(FATAL_ERROR
          "${selftest_failures} self-test case(s) failed")
endif()
message(STATUS "check_bench_regression selftest: all cases passed")
