# Compares a fresh benchmark JSON document against a committed baseline.
# Seven schemas are understood, dispatched on the document's "schema" key:
#
#   tpstream-bench-ingest-v1     (bench/ingest_common.h -> BENCH_ingest.json)
#   tpstream-bench-parallel-v1   (bench_parallel_scaling -> BENCH_parallel.json)
#   tpstream-bench-overload-v1   (bench_overload -> BENCH_overload.json)
#   tpstream-bench-multiquery-v1 (bench_multiquery -> BENCH_multiquery.json)
#   tpstream-bench-compiled-v2   (bench_compiled -> BENCH_compiled.json)
#   tpstream-bench-checkpoint-v1 (bench_checkpoint -> BENCH_checkpoint.json)
#   tpstream-bench-durability-v1 (bench_durability -> BENCH_durability.json)
#
# Usage:
#   cmake -DCURRENT=out.json -DBASELINE=BENCH_ingest.json \
#         [-DTHROUGHPUT_TOLERANCE_PCT=30] [-DALLOC_TOLERANCE_MICRO=500000] \
#         [-DP99_FACTOR_PCT=500] [-DRING_FULL_FACTOR_PCT=500] \
#         [-DRING_FULL_SLACK=1000] [-DSCALING_FLOOR_2W_PCT=130] \
#         [-DSCALING_FLOOR_4W_PCT=250] [-DSUMMARY_FILE=summary.md] \
#         -P cmake/check_bench_regression.cmake
#
# Ingest checks (per run; every CURRENT run needs a same-named baseline):
#   * events_per_sec        >= baseline * (1 - THROUGHPUT_TOLERANCE_PCT%)
#   * allocations_per_event <= baseline + ALLOC_TOLERANCE_MICRO * 1e-6
#   * push_ns.p99           <= baseline * P99_FACTOR_PCT%
#
# Parallel checks (per run):
#   * events_per_sec            >= baseline * (1 - THROUGHPUT_TOLERANCE_PCT%)
#   * producer_allocs_per_event <= baseline + ALLOC_TOLERANCE_MICRO * 1e-6
#   * push_ns.p99               <= baseline * P99_FACTOR_PCT%
#   * ring_full <= baseline * RING_FULL_FACTOR_PCT% + RING_FULL_SLACK
# plus cross-run scaling floors computed from CURRENT alone, enforced on
# the match_heavy profile and only when the measuring machine actually
# has the cores (the document's "cpus" field): with cpus >= 2,
# eps(w2) >= eps(w1) * SCALING_FLOOR_2W_PCT%; with cpus >= 4,
# eps(w4) >= eps(w1) * SCALING_FLOOR_4W_PCT%. The match_light profile is
# producer-bound (single-threaded routing at ingest speed) and carries no
# scaling floor.
#
# Overload checks (runs: block / drop_newest / drop_oldest at 2x the
# calibrated capacity — the Degradation contract of docs/architecture.md):
#   * events_per_sec >= baseline * (1 - THROUGHPUT_TOLERANCE_PCT%)
#   * push_ns.p99    <= baseline * P99_FACTOR_PCT%   (drop runs only:
#     kBlock's push latency is unbounded by design, so it carries no p99
#     gate; for the drop policies the bound is the shed-spin budget)
# plus absolute invariants evaluated on CURRENT alone:
#   * block sheds nothing and quarantines nothing (lossless by contract)
#   * every drop run's quarantined count equals its shed_batches (each
#     shed batch reaches the dead-letter sink exactly once)
#   * drop_oldest actually sheds (shed_events > 0) — at 2x offered load a
#     zero here means the bench no longer overloads the operator and the
#     other numbers are vacuous. (kDropNewest may legitimately shed
#     nothing when the ring clears within its spin budget, so only its
#     accounting — not a shed floor — is enforced.)
#
# Multiquery checks (runs: nN.{identical,distinct}.{shared,unshared}):
#   * events_per_sec >= baseline * (1 - THROUGHPUT_TOLERANCE_PCT%)
# plus the headline sharing invariant, evaluated on CURRENT alone: at
# N = 10000 identical queries the shared engine must sustain
#   eps(n10000.identical.shared) >=
#       eps(n10000.identical.unshared) * MULTIQUERY_SPEEDUP_FLOOR_PCT%
# (default 500% = 5x; the unshared side may be extrapolated from N = 100,
# which the bench document marks with "extrapolated": true).
#
# Compiled checks (runs: deriver.{interpreter,bytecode_batch,
# bytecode_batch_scalar}; v2 adds a per-run "simd_level" and a top-level
# "cpus"):
#   * events_per_sec >= baseline * (1 - THROUGHPUT_TOLERANCE_PCT%)
# plus the headline ablation invariant, evaluated on CURRENT alone: the
# columnar bytecode path must hold its advantage over the interpreter,
#   eps(deriver.bytecode_batch) >=
#       eps(deriver.interpreter) * <floor>%
# where <floor> is COMPILED_SIMD_SPEEDUP_FLOOR_PCT (default 400% = 4x)
# when the fresh batch run reports an active SIMD tier (simd_level other
# than "off"), and COMPILED_SPEEDUP_FLOOR_PCT (default 200% = 2x) on
# scalar-fallback machines — the raised floor only binds where the
# kernels actually dispatched. The bench itself aborts if any mode
# derives a different situation stream, so the gate only reasons about
# speed.
#
# Checkpoint checks (runs: operator.steady / partitioned.k64 — periodic
# checkpoints on a random-walk stream, bench_checkpoint):
#   * events_per_sec      >= baseline * (1 - THROUGHPUT_TOLERANCE_PCT%)
#   * pause_ns.p99        <= baseline * CHECKPOINT_P99_FACTOR_PCT%
#     (skipped when the baseline p99 is zero — a sub-ns-resolution pause
#     carries no signal, and a zero baseline must not divide or gate)
#   * bytes_per_checkpoint <= baseline * CHECKPOINT_BYTES_FACTOR_PCT%
#                              + CHECKPOINT_BYTES_SLACK bytes
#     (the additive slack keeps a zero/near-zero baseline from forbidding
#     any growth at all)
# plus an absolute invariant on CURRENT alone: every run must report
# restore_verified = 1 (the bench's built-in restore-and-replay
# differential passed; without it the pause numbers are vacuous).
#
# Durability checks (runs: append.{every_record,every_64k,interval} —
# WAL append throughput per fsync policy; recovery.nN — one-call
# Recover() replay rate; incremental.k8 — full-vs-delta checkpoint
# bytes, bench_durability):
#   * events_per_sec >= baseline * (1 - THROUGHPUT_TOLERANCE_PCT%)
# plus absolute invariants evaluated on CURRENT alone:
#   * every run's replay_verified / restore_verified = 1 (the bench's
#     built-in replay or restore differential passed; without it the
#     throughput numbers are vacuous)
#   * append.every_record issues at least one barrier per appended
#     record (fsyncs >= batches — the policy's durability promise)
#   * append.every_64k actually groups commits (fsyncs * 2 <= batches; a
#     collapse back to per-record barriers silently erases the
#     latency/durability dial)
#   * incremental.k8's mean delta bytes stay under
#     DURABILITY_DELTA_RATIO_PCT% (default 50%) of its mean
#     full-snapshot bytes — the headline incremental-checkpoint
#     invariant; a dirty-set tracking regression shows up as deltas
#     ballooning to full size
#
# The thresholds are deliberately generous: shared CI machines are noisy,
# and the gate is meant to catch regressions (an allocation re-introduced
# on the hot path, a 2x slowdown, scaling collapsing back to the
# single-in-flight hand-off), not variance. All arithmetic is exact
# 64-bit integer math on micro-units, since math(EXPR) has no floating
# point. Ratio gates multiply the micro-unit values by percentages
# directly (no pre-division): events/sec micro-units stay below ~1e13,
# so even * 500 keeps ~3 decimal orders of headroom under the int64
# ceiling, while the old "/ 1000 * 100" form silently truncated any
# field below 1000 micro-units (1e-3 in natural units) to zero.
#
# This script is itself under test: cmake/check_bench_regression_selftest
# .cmake (a ctest entry) feeds it crafted documents — scientific-notation
# baselines, zero baselines, regressed and healthy runs — and asserts the
# pass/fail verdicts.
#
# When SUMMARY_FILE is set, a fresh-vs-baseline markdown delta table is
# appended to it (CI passes $GITHUB_STEP_SUMMARY).
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT CURRENT OR NOT BASELINE)
  message(FATAL_ERROR "pass -DCURRENT=<fresh.json> -DBASELINE=<baseline.json>")
endif()
if(NOT DEFINED THROUGHPUT_TOLERANCE_PCT)
  set(THROUGHPUT_TOLERANCE_PCT 30)
endif()
if(NOT DEFINED ALLOC_TOLERANCE_MICRO)
  set(ALLOC_TOLERANCE_MICRO 500000)  # 0.5 allocations/event
endif()
if(NOT DEFINED P99_FACTOR_PCT)
  set(P99_FACTOR_PCT 500)  # 5x
endif()
if(NOT DEFINED RING_FULL_FACTOR_PCT)
  set(RING_FULL_FACTOR_PCT 500)  # 5x
endif()
if(NOT DEFINED RING_FULL_SLACK)
  set(RING_FULL_SLACK 1000)
endif()
if(NOT DEFINED SCALING_FLOOR_2W_PCT)
  set(SCALING_FLOOR_2W_PCT 130)  # speedup(w2) >= 1.3x
endif()
if(NOT DEFINED SCALING_FLOOR_4W_PCT)
  set(SCALING_FLOOR_4W_PCT 250)  # speedup(w4) >= 2.5x
endif()
if(NOT DEFINED MULTIQUERY_SPEEDUP_FLOOR_PCT)
  set(MULTIQUERY_SPEEDUP_FLOOR_PCT 500)  # shared >= 5x unshared at N=10000
endif()
if(NOT DEFINED COMPILED_SPEEDUP_FLOOR_PCT)
  set(COMPILED_SPEEDUP_FLOOR_PCT 200)  # batched bytecode >= 2x interpreter
endif()
if(NOT DEFINED COMPILED_SIMD_SPEEDUP_FLOOR_PCT)
  set(COMPILED_SIMD_SPEEDUP_FLOOR_PCT 400)  # >= 4x when SIMD dispatched
endif()
if(NOT DEFINED CHECKPOINT_P99_FACTOR_PCT)
  set(CHECKPOINT_P99_FACTOR_PCT 500)  # pause p99 <= 5x baseline
endif()
if(NOT DEFINED CHECKPOINT_BYTES_FACTOR_PCT)
  set(CHECKPOINT_BYTES_FACTOR_PCT 200)  # bytes/checkpoint <= 2x baseline
endif()
if(NOT DEFINED CHECKPOINT_BYTES_SLACK)
  set(CHECKPOINT_BYTES_SLACK 4096)  # + 4 KiB absolute slack
endif()
if(NOT DEFINED DURABILITY_DELTA_RATIO_PCT)
  set(DURABILITY_DELTA_RATIO_PCT 50)  # delta bytes <= 50% of full bytes
endif()

file(READ "${CURRENT}" current_doc)
file(READ "${BASELINE}" baseline_doc)

string(JSON schema ERROR_VARIABLE err GET "${current_doc}" schema)
if(err OR (NOT schema STREQUAL "tpstream-bench-ingest-v1" AND
           NOT schema STREQUAL "tpstream-bench-parallel-v1" AND
           NOT schema STREQUAL "tpstream-bench-overload-v1" AND
           NOT schema STREQUAL "tpstream-bench-multiquery-v1" AND
           NOT schema STREQUAL "tpstream-bench-compiled-v2" AND
           NOT schema STREQUAL "tpstream-bench-checkpoint-v1" AND
           NOT schema STREQUAL "tpstream-bench-durability-v1"))
  message(FATAL_ERROR "${CURRENT}: bad or missing schema ('${schema}') ${err}")
endif()
string(JSON base_schema ERROR_VARIABLE err GET "${baseline_doc}" schema)
if(err OR NOT base_schema STREQUAL schema)
  message(FATAL_ERROR
          "${BASELINE}: schema '${base_schema}' does not match ${CURRENT}'s "
          "'${schema}' ${err}")
endif()

# Parses a non-negative decimal number ("123", "123.45", "4e-06") into
# integer micro-units (x 1e6, truncated).
function(to_micro val out)
  if(val MATCHES "^([0-9]+)(\\.([0-9]+))?[eE]([+-]?[0-9]+)$")
    # Normalize the mantissa to an integer by shifting its fractional
    # digits in and deducting their count from the exponent — dropping
    # the fraction (the old behaviour) mis-parsed "1.5e3" as 1000, which
    # silently loosened every gate fed such a baseline.
    set(int_part ${CMAKE_MATCH_1})
    set(frac ${CMAKE_MATCH_3})  # regex ops below clobber CMAKE_MATCH_*
    set(exp ${CMAKE_MATCH_4})
    string(LENGTH "${frac}" frac_len)
    set(digits "${int_part}${frac}")
    # Strip leading zeros so math(EXPR) does not parse octal.
    string(REGEX REPLACE "^0+" "" digits "${digits}")
    if(digits STREQUAL "")
      set(digits 0)
    endif()
    math(EXPR exp "(${exp}) - ${frac_len} + 6")  # +6: micro-units
    if(exp LESS 0)
      math(EXPR neg "0 - (${exp})")
      if(neg GREATER 18)  # below int64 resolution: truncates to zero
        set(${out} 0 PARENT_SCOPE)
        return()
      endif()
      set(result ${digits})
      foreach(i RANGE 1 ${neg})
        math(EXPR result "${result} / 10")
      endforeach()
    else()
      if(exp GREATER 12)
        message(FATAL_ERROR
                "number '${val}' too large for micro-unit int64 math")
      endif()
      set(result ${digits})
      if(exp GREATER 0)
        foreach(i RANGE 1 ${exp})
          math(EXPR result "${result} * 10")
        endforeach()
      endif()
    endif()
    set(${out} ${result} PARENT_SCOPE)
  elseif(val MATCHES "^([0-9]+)\\.([0-9]+)$")
    set(int_part ${CMAKE_MATCH_1})  # regex ops below clobber CMAKE_MATCH_*
    string(SUBSTRING "${CMAKE_MATCH_2}000000" 0 6 frac)
    # Strip leading zeros so math(EXPR) does not parse octal.
    string(REGEX REPLACE "^0+" "" frac "${frac}")
    if(frac STREQUAL "")
      set(frac 0)
    endif()
    math(EXPR result "${int_part} * 1000000 + ${frac}")
    set(${out} ${result} PARENT_SCOPE)
  elseif(val MATCHES "^[0-9]+$")
    math(EXPR result "${val} * 1000000")
    set(${out} ${result} PARENT_SCOPE)
  else()
    message(FATAL_ERROR "cannot parse number '${val}'")
  endif()
endfunction()

# Percentage delta (integer, rounded toward zero) of cur vs base
# micro-unit values; "n/a" when the baseline is zero.
function(delta_pct cur_u base_u out)
  if(base_u EQUAL 0)
    set(${out} "n/a" PARENT_SCOPE)
    return()
  endif()
  math(EXPR pct "(${cur_u} - ${base_u}) * 100 / ${base_u}")
  if(pct GREATER_EQUAL 0)
    set(${out} "+${pct}%" PARENT_SCOPE)
  else()
    set(${out} "${pct}%" PARENT_SCOPE)
  endif()
endfunction()

function(summary_append line)
  if(SUMMARY_FILE)
    file(APPEND "${SUMMARY_FILE}" "${line}\n")
  endif()
endfunction()

# string(JSON) re-serializes numbers at full double precision
# (1.0637000000000001); trim to two decimals for the summary table.
function(pretty_num val out)
  if(val MATCHES "^([0-9]+)\\.([0-9][0-9]?)")
    set(${out} "${CMAKE_MATCH_1}.${CMAKE_MATCH_2}" PARENT_SCOPE)
  else()
    set(${out} "${val}" PARENT_SCOPE)
  endif()
endfunction()

string(JSON num_runs LENGTH "${current_doc}" runs)
if(num_runs EQUAL 0)
  message(FATAL_ERROR "${CURRENT}: no runs")
endif()

get_filename_component(current_name "${CURRENT}" NAME)
get_filename_component(baseline_name "${BASELINE}" NAME)
summary_append("### Perf smoke: `${current_name}` vs `${baseline_name}` (${schema})")
summary_append("")
if(schema STREQUAL "tpstream-bench-ingest-v1")
  summary_append("| run | evt/s | baseline | Δ | alloc/evt | p99 ns | baseline p99 |")
  summary_append("|---|---|---|---|---|---|---|")
elseif(schema STREQUAL "tpstream-bench-overload-v1")
  summary_append("| run | evt/s | baseline | Δ | shed_events | quarantined | ring_full | p99 ns |")
  summary_append("|---|---|---|---|---|---|---|---|")
elseif(schema STREQUAL "tpstream-bench-multiquery-v1")
  summary_append("| run | evt/s | baseline | Δ | matches/query | distinct defs |")
  summary_append("|---|---|---|---|---|---|")
elseif(schema STREQUAL "tpstream-bench-compiled-v2")
  summary_append("| run | evt/s | baseline | Δ | situations | programs | simd | speedup |")
  summary_append("|---|---|---|---|---|---|---|---|")
elseif(schema STREQUAL "tpstream-bench-checkpoint-v1")
  summary_append("| run | evt/s | baseline | Δ | bytes/ckpt | baseline | pause p99 ns | baseline p99 | verified |")
  summary_append("|---|---|---|---|---|---|---|---|---|")
elseif(schema STREQUAL "tpstream-bench-durability-v1")
  summary_append("| run | evt/s | baseline | Δ | fsyncs | bytes/full | bytes/delta | verified |")
  summary_append("|---|---|---|---|---|---|---|---|")
else()
  summary_append("| run | evt/s | baseline | Δ | speedup | ring_full | alloc/evt | p99 ns |")
  summary_append("|---|---|---|---|---|---|---|---|")
endif()

set(failures 0)
math(EXPR last "${num_runs} - 1")
foreach(i RANGE 0 ${last})
  set(failures_before ${failures})
  string(JSON name MEMBER "${current_doc}" runs ${i})
  string(JSON base_run ERROR_VARIABLE err GET "${baseline_doc}" runs "${name}")
  if(err)
    message(FATAL_ERROR
            "run '${name}' missing from baseline ${BASELINE} — regenerate it "
            "(see EXPERIMENTS.md, 'Perf baselines'): ${err}")
  endif()

  # Throughput floor — common to both schemas.
  string(JSON cur_eps GET "${current_doc}" runs "${name}" events_per_sec)
  string(JSON base_eps GET "${baseline_doc}" runs "${name}" events_per_sec)
  to_micro("${cur_eps}" cur_eps_u)
  to_micro("${base_eps}" base_eps_u)
  # Multiply micro-units by percentages directly: the former
  # "/ 1000 * 100" form truncated any rate below 1000 micro-units to
  # zero, which made a near-zero baseline unfailable (0 >= 0).
  math(EXPR lhs "${cur_eps_u} * 100")
  math(EXPR rhs "${base_eps_u} * (100 - ${THROUGHPUT_TOLERANCE_PCT})")
  if(lhs LESS rhs)
    message(SEND_ERROR
            "${name}: throughput regressed — ${cur_eps} evt/s vs baseline "
            "${base_eps} (allowed: -${THROUGHPUT_TOLERANCE_PCT}%)")
    math(EXPR failures "${failures} + 1")
  endif()
  delta_pct(${cur_eps_u} ${base_eps_u} eps_delta)

  # Allocation ceiling — field name differs per schema; the overload
  # schema has no allocation counter (its producer thread blocks or
  # sheds, it never allocates) and the multiquery/compiled schemas
  # measure bulk throughput only, so the check does not apply to them.
  if(schema STREQUAL "tpstream-bench-overload-v1" OR
     schema STREQUAL "tpstream-bench-multiquery-v1" OR
     schema STREQUAL "tpstream-bench-compiled-v2" OR
     schema STREQUAL "tpstream-bench-checkpoint-v1" OR
     schema STREQUAL "tpstream-bench-durability-v1")
    set(cur_ape "n/a")
    set(base_ape "n/a")
  else()
    if(schema STREQUAL "tpstream-bench-ingest-v1")
      set(alloc_field allocations_per_event)
    else()
      set(alloc_field producer_allocs_per_event)
    endif()
    string(JSON cur_ape GET "${current_doc}" runs "${name}" ${alloc_field})
    string(JSON base_ape GET "${baseline_doc}" runs "${name}" ${alloc_field})
    to_micro("${cur_ape}" cur_ape_u)
    to_micro("${base_ape}" base_ape_u)
    math(EXPR ape_limit "${base_ape_u} + ${ALLOC_TOLERANCE_MICRO}")
    if(cur_ape_u GREATER ape_limit)
      message(SEND_ERROR
              "${name}: ${alloc_field} regressed — ${cur_ape} vs baseline "
              "${base_ape} (+${ALLOC_TOLERANCE_MICRO} micro-allocs allowed)")
      math(EXPR failures "${failures} + 1")
    endif()
  endif()

  # Push-latency p99 bound. The multiquery and compiled schemas record no
  # latency distribution (bulk-throughput runs); for the overload schema
  # the bound applies to the drop runs only: kBlock converts excess
  # offered load into push latency by design, so its p99 tracks the
  # overload factor, not a regression.
  if(schema STREQUAL "tpstream-bench-multiquery-v1" OR
     schema STREQUAL "tpstream-bench-compiled-v2" OR
     schema STREQUAL "tpstream-bench-durability-v1")
    # The durability schema likewise records no latency distribution
    # (append throughput and recovery wall time only).
    set(cur_p99 "n/a")
    set(base_p99 0)
  elseif(schema STREQUAL "tpstream-bench-checkpoint-v1")
    # The checkpoint schema's latency distribution is the checkpoint
    # pause, not the push latency, and carries its own (stricter-purpose)
    # factor.
    string(JSON cur_p99 GET "${current_doc}" runs "${name}" pause_ns p99)
    string(JSON base_p99 GET "${baseline_doc}" runs "${name}" pause_ns p99)
  else()
    string(JSON cur_p99 GET "${current_doc}" runs "${name}" push_ns p99)
    string(JSON base_p99 GET "${baseline_doc}" runs "${name}" push_ns p99)
  endif()
  if(schema STREQUAL "tpstream-bench-checkpoint-v1")
    set(p99_factor ${CHECKPOINT_P99_FACTOR_PCT})
    set(p99_what "checkpoint pause")
  else()
    set(p99_factor ${P99_FACTOR_PCT})
    set(p99_what "push")
  endif()
  if(NOT schema STREQUAL "tpstream-bench-multiquery-v1" AND
     NOT schema STREQUAL "tpstream-bench-compiled-v2" AND
     NOT schema STREQUAL "tpstream-bench-durability-v1" AND
     NOT (schema STREQUAL "tpstream-bench-overload-v1" AND
          name STREQUAL "block"))
    # The base_p99 > 0 guard doubles as zero-safety: a zero baseline
    # (sub-resolution pause) gates nothing rather than gating everything.
    math(EXPR p99_limit "${base_p99} * ${p99_factor} / 100")
    if(base_p99 GREATER 0 AND cur_p99 GREATER p99_limit)
      message(SEND_ERROR
              "${name}: ${p99_what} p99 regressed — ${cur_p99} ns vs "
              "baseline ${base_p99} ns (allowed: ${p99_factor}%)")
      math(EXPR failures "${failures} + 1")
    endif()
  endif()

  pretty_num("${cur_eps}" cur_eps_fmt)
  pretty_num("${base_eps}" base_eps_fmt)
  pretty_num("${cur_ape}" cur_ape_fmt)
  if(schema STREQUAL "tpstream-bench-ingest-v1")
    summary_append("| ${name} | ${cur_eps_fmt} | ${base_eps_fmt} | ${eps_delta} | ${cur_ape_fmt} | ${cur_p99} | ${base_p99} |")
  elseif(schema STREQUAL "tpstream-bench-multiquery-v1")
    string(JSON cur_mpq GET "${current_doc}" runs "${name}" matches_per_query)
    string(JSON cur_defs GET "${current_doc}" runs "${name}"
           distinct_definitions)
    summary_append("| ${name} | ${cur_eps_fmt} | ${base_eps_fmt} | ${eps_delta} | ${cur_mpq} | ${cur_defs} |")
  elseif(schema STREQUAL "tpstream-bench-compiled-v2")
    string(JSON cur_sits GET "${current_doc}" runs "${name}" situations)
    string(JSON cur_progs GET "${current_doc}" runs "${name}"
           compiled_programs)
    string(JSON cur_simd GET "${current_doc}" runs "${name}" simd_level)
    string(JSON cur_spd GET "${current_doc}" runs "${name}"
           speedup_vs_interpreter)
    pretty_num("${cur_spd}" cur_spd_fmt)
    summary_append("| ${name} | ${cur_eps_fmt} | ${base_eps_fmt} | ${eps_delta} | ${cur_sits} | ${cur_progs} | ${cur_simd} | ${cur_spd_fmt}x |")
  elseif(schema STREQUAL "tpstream-bench-overload-v1")
    # Absolute invariants of the Degradation contract, from CURRENT alone.
    string(JSON cur_shed GET "${current_doc}" runs "${name}" shed_events)
    string(JSON cur_shed_b GET "${current_doc}" runs "${name}" shed_batches)
    string(JSON cur_quar GET "${current_doc}" runs "${name}" quarantined)
    string(JSON cur_rf GET "${current_doc}" runs "${name}" ring_full)
    if(name STREQUAL "block")
      if(NOT cur_shed EQUAL 0 OR NOT cur_quar EQUAL 0)
        message(SEND_ERROR
                "block: kBlock must be lossless but shed ${cur_shed} "
                "event(s) / quarantined ${cur_quar} item(s)")
        math(EXPR failures "${failures} + 1")
      endif()
    else()
      if(NOT cur_quar EQUAL cur_shed_b)
        message(SEND_ERROR
                "${name}: ${cur_quar} quarantined item(s) vs "
                "${cur_shed_b} shed batch(es) — every shed batch must "
                "reach the dead-letter sink exactly once")
        math(EXPR failures "${failures} + 1")
      endif()
    endif()
    if(name STREQUAL "drop_oldest" AND cur_shed EQUAL 0)
      message(SEND_ERROR
              "drop_oldest: shed nothing at 2x offered load — the bench "
              "no longer overloads the operator, its numbers are vacuous")
      math(EXPR failures "${failures} + 1")
    endif()
    summary_append("| ${name} | ${cur_eps_fmt} | ${base_eps_fmt} | ${eps_delta} | ${cur_shed} | ${cur_quar} | ${cur_rf} | ${cur_p99} |")
  elseif(schema STREQUAL "tpstream-bench-checkpoint-v1")
    # Bytes-per-checkpoint ceiling: a factor on the baseline plus an
    # absolute slack, so a tiny baseline (a near-empty operator) cannot
    # forbid all growth, and a zero baseline never divides.
    string(JSON cur_bpc GET "${current_doc}" runs "${name}"
           bytes_per_checkpoint)
    string(JSON base_bpc GET "${baseline_doc}" runs "${name}"
           bytes_per_checkpoint)
    to_micro("${cur_bpc}" cur_bpc_u)
    to_micro("${base_bpc}" base_bpc_u)
    math(EXPR bpc_limit
         "${base_bpc_u} * ${CHECKPOINT_BYTES_FACTOR_PCT} / 100 + ${CHECKPOINT_BYTES_SLACK} * 1000000")
    if(cur_bpc_u GREATER bpc_limit)
      message(SEND_ERROR
              "${name}: bytes_per_checkpoint regressed — ${cur_bpc} vs "
              "baseline ${base_bpc} (allowed: *${CHECKPOINT_BYTES_FACTOR_PCT}% "
              "+ ${CHECKPOINT_BYTES_SLACK})")
      math(EXPR failures "${failures} + 1")
    endif()
    # Absolute invariant from CURRENT alone: the bench's built-in
    # restore-and-replay differential must have passed.
    string(JSON cur_rv GET "${current_doc}" runs "${name}" restore_verified)
    if(NOT cur_rv EQUAL 1)
      message(SEND_ERROR
              "${name}: restore_verified = ${cur_rv} — the recovered run "
              "diverged from the uninterrupted run; the checkpoint numbers "
              "are vacuous")
      math(EXPR failures "${failures} + 1")
    endif()
    pretty_num("${cur_bpc}" cur_bpc_fmt)
    pretty_num("${base_bpc}" base_bpc_fmt)
    summary_append("| ${name} | ${cur_eps_fmt} | ${base_eps_fmt} | ${eps_delta} | ${cur_bpc_fmt} | ${base_bpc_fmt} | ${cur_p99} | ${base_p99} | ${cur_rv} |")
  elseif(schema STREQUAL "tpstream-bench-durability-v1")
    # Absolute invariants of the Durability contract, from CURRENT alone.
    # Field sets differ per run family; optional fields show as "-".
    set(cur_fsyncs "-")
    set(cur_bpf "-")
    set(cur_bpd "-")
    if(name MATCHES "^incremental\\.")
      string(JSON cur_rv GET "${current_doc}" runs "${name}" restore_verified)
      if(NOT cur_rv EQUAL 1)
        message(SEND_ERROR
                "${name}: restore_verified = ${cur_rv} — the recovered "
                "engine diverged from the uninterrupted run; the "
                "checkpoint byte counts are vacuous")
        math(EXPR failures "${failures} + 1")
      endif()
      string(JSON cur_bpf GET "${current_doc}" runs "${name}" bytes_per_full)
      string(JSON cur_bpd GET "${current_doc}" runs "${name}" bytes_per_delta)
      to_micro("${cur_bpf}" cur_bpf_u)
      to_micro("${cur_bpd}" cur_bpd_u)
      math(EXPR lhs "${cur_bpd_u} * 100")
      math(EXPR rhs "${cur_bpf_u} * ${DURABILITY_DELTA_RATIO_PCT}")
      if(cur_bpf_u EQUAL 0 OR lhs GREATER rhs)
        message(SEND_ERROR
                "${name}: incremental invariant missed — mean delta "
                "${cur_bpd} bytes vs mean full ${cur_bpf} bytes (deltas "
                "must stay <= ${DURABILITY_DELTA_RATIO_PCT}% of a full "
                "snapshot)")
        math(EXPR failures "${failures} + 1")
      endif()
      pretty_num("${cur_bpf}" cur_bpf)
      pretty_num("${cur_bpd}" cur_bpd)
    else()
      string(JSON cur_rv GET "${current_doc}" runs "${name}" replay_verified)
      if(NOT cur_rv EQUAL 1)
        message(SEND_ERROR
                "${name}: replay_verified = ${cur_rv} — the replayed "
                "stream diverged from what was appended; the throughput "
                "numbers are vacuous")
        math(EXPR failures "${failures} + 1")
      endif()
    endif()
    if(name MATCHES "^append\\.")
      string(JSON cur_fsyncs GET "${current_doc}" runs "${name}" fsyncs)
      string(JSON cur_batches GET "${current_doc}" runs "${name}" batches)
      if(name STREQUAL "append.every_record" AND
         cur_fsyncs LESS cur_batches)
        message(SEND_ERROR
                "${name}: only ${cur_fsyncs} fsync(s) for ${cur_batches} "
                "appended record(s) — kEveryRecord promises a barrier "
                "per record")
        math(EXPR failures "${failures} + 1")
      endif()
      math(EXPR fsyncs_2x "${cur_fsyncs} * 2")
      if(name STREQUAL "append.every_64k" AND
         fsyncs_2x GREATER cur_batches)
        message(SEND_ERROR
                "${name}: ${cur_fsyncs} fsync(s) for ${cur_batches} "
                "appended record(s) — kEveryBytes no longer groups "
                "commits (need <= 1 barrier per 2 records)")
        math(EXPR failures "${failures} + 1")
      endif()
    endif()
    summary_append("| ${name} | ${cur_eps_fmt} | ${base_eps_fmt} | ${eps_delta} | ${cur_fsyncs} | ${cur_bpf} | ${cur_bpd} | ${cur_rv} |")
  else()
    # Backpressure bound: a collapse back to single-in-flight hand-off
    # shows up as ring_full exploding relative to the baseline.
    string(JSON cur_rf GET "${current_doc}" runs "${name}" ring_full)
    string(JSON base_rf GET "${baseline_doc}" runs "${name}" ring_full)
    math(EXPR rf_limit
         "${base_rf} * ${RING_FULL_FACTOR_PCT} / 100 + ${RING_FULL_SLACK}")
    if(cur_rf GREATER rf_limit)
      message(SEND_ERROR
              "${name}: ring_full regressed — ${cur_rf} stalled submits vs "
              "baseline ${base_rf} (allowed: *${RING_FULL_FACTOR_PCT}% + "
              "${RING_FULL_SLACK})")
      math(EXPR failures "${failures} + 1")
    endif()
    string(JSON cur_speedup GET "${current_doc}" runs "${name}" speedup_vs_w1)
    pretty_num("${cur_speedup}" cur_speedup_fmt)
    summary_append("| ${name} | ${cur_eps_fmt} | ${base_eps_fmt} | ${eps_delta} | ${cur_speedup_fmt}x | ${cur_rf} | ${cur_ape_fmt} | ${cur_p99} |")
  endif()

  if(failures EQUAL failures_before)
    message(STATUS
            "${name}: ${cur_eps} evt/s (baseline ${base_eps}), "
            "${cur_ape} alloc/evt (baseline ${base_ape}), "
            "p99 ${cur_p99} ns (baseline ${base_p99}) — OK within thresholds")
  endif()
endforeach()

# Cross-run scaling floors (parallel schema, CURRENT document only):
# enforced on match_heavy, gated on the measuring machine's core count.
if(schema STREQUAL "tpstream-bench-parallel-v1")
  string(JSON cpus ERROR_VARIABLE err GET "${current_doc}" cpus)
  if(err)
    set(cpus 0)
  endif()
  string(JSON w1 ERROR_VARIABLE err1 GET "${current_doc}" runs match_heavy.w1
         events_per_sec)
  foreach(pair "2;${SCALING_FLOOR_2W_PCT}" "4;${SCALING_FLOOR_4W_PCT}")
    list(GET pair 0 nworkers)
    list(GET pair 1 floor_pct)
    if(err1 OR cpus LESS ${nworkers})
      message(STATUS
              "match_heavy.w${nworkers}: scaling floor skipped "
              "(cpus=${cpus}, need >= ${nworkers})")
      summary_append("")
      summary_append("match_heavy w${nworkers} scaling floor skipped: machine has ${cpus} core(s).")
      continue()
    endif()
    string(JSON wn ERROR_VARIABLE errn GET "${current_doc}" runs
           match_heavy.w${nworkers} events_per_sec)
    if(errn)
      continue()  # sweep did not include this worker count
    endif()
    to_micro("${w1}" w1_u)
    to_micro("${wn}" wn_u)
    math(EXPR lhs "${wn_u} * 100")
    math(EXPR rhs "${w1_u} * ${floor_pct}")
    if(lhs LESS rhs)
      message(SEND_ERROR
              "match_heavy.w${nworkers}: scaling floor missed — ${wn} evt/s "
              "vs ${w1} at 1 worker (need >= ${floor_pct}% on a "
              "${cpus}-core machine)")
      math(EXPR failures "${failures} + 1")
    else()
      message(STATUS
              "match_heavy.w${nworkers}: ${wn} evt/s vs ${w1} at 1 worker — "
              "scaling floor ${floor_pct}% met")
    endif()
  endforeach()
endif()

# Sharing floor (multiquery schema, CURRENT document only): the shared
# engine must hold its headline advantage over N independent operators.
if(schema STREQUAL "tpstream-bench-multiquery-v1")
  string(JSON shared_eps ERROR_VARIABLE err_s GET "${current_doc}" runs
         n10000.identical.shared events_per_sec)
  string(JSON unshared_eps ERROR_VARIABLE err_u GET "${current_doc}" runs
         n10000.identical.unshared events_per_sec)
  if(err_s OR err_u)
    message(FATAL_ERROR
            "multiquery document is missing the n10000.identical runs "
            "needed for the sharing floor: ${err_s} ${err_u}")
  endif()
  to_micro("${shared_eps}" shared_u)
  to_micro("${unshared_eps}" unshared_u)
  math(EXPR lhs "${shared_u} * 100")
  math(EXPR rhs "${unshared_u} * ${MULTIQUERY_SPEEDUP_FLOOR_PCT}")
  if(lhs LESS rhs)
    message(SEND_ERROR
            "n10000.identical: sharing floor missed — shared ${shared_eps} "
            "evt/s vs unshared ${unshared_eps} (need >= "
            "${MULTIQUERY_SPEEDUP_FLOOR_PCT}%)")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS
            "n10000.identical: shared ${shared_eps} evt/s vs unshared "
            "${unshared_eps} — sharing floor "
            "${MULTIQUERY_SPEEDUP_FLOOR_PCT}% met")
  endif()
endif()

# Ablation floor (compiled schema, CURRENT document only): batched
# bytecode evaluation must hold its headline advantage over the tree
# interpreter on the derivation-bound workload. The floor is raised when
# the fresh run reports an active SIMD tier — only a machine that
# actually dispatched the kernels is held to the kernel-level speedup;
# scalar-fallback machines keep the portable 2x floor.
if(schema STREQUAL "tpstream-bench-compiled-v2")
  string(JSON interp_eps ERROR_VARIABLE err_i GET "${current_doc}" runs
         deriver.interpreter events_per_sec)
  string(JSON batch_eps ERROR_VARIABLE err_b GET "${current_doc}" runs
         deriver.bytecode_batch events_per_sec)
  if(err_i OR err_b)
    message(FATAL_ERROR
            "compiled document is missing the deriver.interpreter / "
            "deriver.bytecode_batch runs needed for the ablation floor: "
            "${err_i} ${err_b}")
  endif()
  string(JSON batch_simd ERROR_VARIABLE err_simd GET "${current_doc}" runs
         deriver.bytecode_batch simd_level)
  if(err_simd)
    message(FATAL_ERROR
            "compiled document's deriver.bytecode_batch run has no "
            "simd_level (schema v2 requires it): ${err_simd}")
  endif()
  if(batch_simd STREQUAL "off")
    set(compiled_floor ${COMPILED_SPEEDUP_FLOOR_PCT})
  else()
    set(compiled_floor ${COMPILED_SIMD_SPEEDUP_FLOOR_PCT})
  endif()
  to_micro("${interp_eps}" interp_u)
  to_micro("${batch_eps}" batch_u)
  math(EXPR lhs "${batch_u} * 100")
  math(EXPR rhs "${interp_u} * ${compiled_floor}")
  if(lhs LESS rhs)
    message(SEND_ERROR
            "deriver.bytecode_batch: ablation floor missed — ${batch_eps} "
            "evt/s vs interpreter ${interp_eps} (need >= "
            "${compiled_floor}% at simd_level '${batch_simd}')")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS
            "deriver.bytecode_batch: ${batch_eps} evt/s vs interpreter "
            "${interp_eps} — ablation floor ${compiled_floor}% "
            "(simd_level '${batch_simd}') met")
  endif()
endif()

summary_append("")
if(failures GREATER 0)
  summary_append("**${failures} threshold(s) exceeded.**")
  message(FATAL_ERROR "${failures} benchmark threshold(s) exceeded")
endif()
summary_append("All runs within thresholds.")
message(STATUS "${CURRENT}: ${num_runs} run(s) within thresholds of ${BASELINE}")
