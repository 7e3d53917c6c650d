# Self-test for cmake/check_bench_regression.cmake, run as a ctest entry
# (tests/CMakeLists.txt): crafted tpstream-bench-v3 records pin the
# gate's number parsing, threshold arithmetic, missing-input failures and
# contract check, and every committed BENCH_*.json must pass against
# itself with each declared invariant evaluated or explicitly skipped.
#
# Usage:
#   cmake -DGATE_SCRIPT=<check_bench_regression.cmake> -DWORK_DIR=<dir> \
#         -P cmake/check_bench_regression_selftest.cmake
cmake_minimum_required(VERSION 3.19)

if(NOT GATE_SCRIPT OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DGATE_SCRIPT=<gate.cmake> -DWORK_DIR=<dir>")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Writes WORK_DIR/<name>.json: run "r" with <metrics>, plus the given
# gate and invariant lists, recorded on a machine with ${CPUS} CPUs.
set(CPUS 1)
function(record name metrics gates invariants)
  file(WRITE "${WORK_DIR}/${name}.json" "{\"schema\": \"tpstream-bench-v3\",
  \"bench\": \"selftest\", \"cpus\": ${CPUS}, \"simd_level\": \"off\",
  \"runs\": {\"r\": {${metrics}}},
  \"gates\": [${gates}], \"invariants\": [${invariants}]}")
endfunction()

# Gates WORK_DIR/<current>.json against WORK_DIR/<baseline>.json and
# asserts the verdict ("pass" or "fail"); the gate's printed checks must
# match the optional pattern. Leaves the gate's output in gate_out.
function(gate_case case verdict current baseline)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -DCURRENT=${WORK_DIR}/${current}.json
            -DBASELINE=${WORK_DIR}/${baseline}.json -P "${GATE_SCRIPT}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(got fail)
  if(rc EQUAL 0)
    set(got pass)
  endif()
  set(gate_out "${out}" PARENT_SCOPE)
  if(got STREQUAL verdict AND out MATCHES "${ARGN}")
    message(STATUS "${case}: OK (${verdict})")
  else()
    message(SEND_ERROR "${case}: expected ${verdict} with output matching "
                       "'${ARGN}', got rc=${rc}:\n${out}${err}")
  endif()
endfunction()

set(FLOOR [[{"run": "r", "metric": "eps", "floor_pct": 70}]])
set(P99 [[{"run": "r", "metric": "lat.p99", "ceiling_pct": 500, "slack": 0}]])
set(BYTES [[{"run": "r", "metric": "bytes", "ceiling_pct": 200, "slack": 4096}]])
set(GATES "${FLOOR}, ${P99}, ${BYTES}")
set(VERIFIED [[{"name": "verified", "value": ["r", "ok"], "min_pct": 100, "max_pct": 100}]])
set(RATIO [[{"name": "ratio", "value": ["r", "a"], "over": ["r", "b"], "min_pct": 200, "max_pct": 400}]])

# Unchanged: passes. Scientific notation keeps its mantissa: string(JSON)
# hands 1.5e-5 on as "1.5e-05" (1.5e3 would come back as "1500.0" and
# miss the branch), putting the -30% floor at 10.5 micro-units, so 8e-6
# fails (a parser reading 1e-5 would put it at 7) and 1.2e-5 passes.
record(base [["eps": 100000.0, "lat.p99": 5000, "bytes": 630.2]] "${GATES}" "")
gate_case(unchanged-passes pass base base)
record(sci_base [["eps": 1.5e-5, "lat.p99": 5000, "bytes": 630]] "${GATES}" "")
record(sci_cur [["eps": 8e-6, "lat.p99": 5000, "bytes": 630]] "${GATES}" "")
gate_case(scinot-mantissa-gates fail sci_cur sci_base "r.eps: FAIL: below floor")
record(sci_ok [["eps": 1.2e-5, "lat.p99": 5000, "bytes": 630]] "${GATES}" "")
gate_case(scinot-within-floor pass sci_ok sci_base)
record(plain_base [["eps": 0.0001, "lat.p99": 5000, "bytes": 630]] "${GATES}" "")
record(sci_fresh [["eps": 9e-5, "lat.p99": 5000, "bytes": 630]] "${GATES}" "")
gate_case(scinot-fresh-vs-plain-baseline pass sci_fresh plain_base)

# A 5x regression against a near-zero baseline still fails: integer
# pre-division would truncate both sides to zero and compare 0 >= 0.
record(tiny_base [["eps": 0.0005, "lat.p99": 5000, "bytes": 630]] "${GATES}" "")
record(tiny_cur [["eps": 0.0001, "lat.p99": 5000, "bytes": 630]] "${GATES}" "")
gate_case(near-zero-baseline-gates fail tiny_cur tiny_base)

# Zero baseline, zero slack: the ceiling is skipped and reported,
# whatever the fresh value.
record(zp_base [["eps": 100000.0, "lat.p99": 0, "bytes": 630]] "${GATES}" "")
record(zp_cur [["eps": 100000.0, "lat.p99": 999999, "bytes": 630]] "${GATES}" "")
gate_case(zero-baseline-ceiling-skips pass zp_cur zp_base
     "r.lat.p99: skipped: zero baseline, zero slack")

# Zero baseline with 4096 slack: 4000 bytes pass, 5000 fail.
record(zb_base [["eps": 100000.0, "lat.p99": 5000, "bytes": 0]] "${GATES}" "")
record(zb_ok [["eps": 100000.0, "lat.p99": 5000, "bytes": 4000.0]] "${GATES}" "")
gate_case(zero-bytes-baseline-slack pass zb_ok zb_base)
record(zb_bad [["eps": 100000.0, "lat.p99": 5000, "bytes": 5000.0]] "${GATES}" "")
gate_case(zero-bytes-baseline-ceiling fail zb_bad zb_base "r.bytes: FAIL: above ceiling")

# p99 factor: 5x of 5000 is 25000.
record(p99_ok [["eps": 100000.0, "lat.p99": 25000, "bytes": 630.2]] "${GATES}" "")
gate_case(p99-at-factor-passes pass p99_ok base)
record(p99_bad [["eps": 100000.0, "lat.p99": 25001, "bytes": 630.2]] "${GATES}" "")
gate_case(p99-factor-gates fail p99_bad base "r.lat.p99: FAIL: above ceiling")

# A verified flag must be exactly 1.
record(ok1 [["eps": 1, "ok": 1]] "${FLOOR}" "${VERIFIED}")
gate_case(verified-passes pass ok1 ok1 "invariant verified: r.ok: ok")
record(ok0 [["eps": 1, "ok": 0]] "${FLOOR}" "${VERIFIED}")
gate_case(unverified-fails fail ok0 ok1 "verified: r.ok: FAIL: below min")

# Ratio invariant a/b within [200%, 400%]: 3x passes, 1.99x and 4.01x
# fail, and a zero denominator compares without dividing.
record(r3 [["eps": 1, "a": 3.0, "b": 1.0]] "${FLOOR}" "${RATIO}")
gate_case(ratio-within-passes pass r3 r3 "r.a / r.b: ok \\(300%")
record(r_low [["eps": 1, "a": 1.99, "b": 1.0]] "${FLOOR}" "${RATIO}")
gate_case(ratio-below-min-fails fail r_low r3 "FAIL: below min")
record(r_high [["eps": 1, "a": 4.01, "b": 1.0]] "${FLOOR}" "${RATIO}")
gate_case(ratio-above-max-fails fail r_high r3 "FAIL: above max")
record(r_zero [["eps": 1, "a": 1.0, "b": 0]] "${FLOOR}" "${RATIO}")
gate_case(ratio-zero-denominator-fails fail r_zero r3 "FAIL: above max")

# Missing inputs fail and are named: an invariant's denominator, a gated
# fresh metric, a baseline run. A declared skip is reported with its
# reason, but only once its inputs exist.
record(miss_inv [["eps": 1, "a": 3.0]] "${FLOOR}" "${RATIO}")
gate_case(missing-invariant-input-fails fail miss_inv r3
     "ratio: r.a / r.b: FAIL: r.b missing from the fresh record")
record(miss_gate [["lat.p99": 5000, "bytes": 630.2]] "${GATES}" "")
gate_case(missing-gated-metric-fails fail miss_gate base
     "r.eps: FAIL: r.eps missing from the fresh record")
file(WRITE "${WORK_DIR}/new_run.json" [[{"schema": "tpstream-bench-v3",
  "bench": "selftest", "cpus": 1, "simd_level": "off",
  "runs": {"r2": {"eps": 1}},
  "gates": [{"run": "r2", "metric": "eps", "floor_pct": 70}]}]])
gate_case(run-missing-from-baseline-fails fail new_run base
     "r2.eps: FAIL: r2.eps missing from the baseline")
set(SKIPPED [[{"name": "floor", "value": ["r", "a"], "over": ["r", "b"], "min_pct": 130, "skip": "machine has 1 usable CPU(s)"}]])
record(skip [["eps": 1, "a": 1.0, "b": 1.0]] "${FLOOR}" "${SKIPPED}")
gate_case(declared-skip-reported pass skip skip
     "floor: r.a / r.b: skipped: machine has 1 usable CPU\\(s\\)")
record(skip_miss [["eps": 1, "a": 1.0]] "${FLOOR}" "${SKIPPED}")
gate_case(skip-with-missing-input-fails fail skip_miss skip "r.b missing")

# The baseline is a contract: dropping, adding or moving a check fails,
# an invariant bound only on the same machine class (cpus, simd_level);
# baseline checks on runs the fresh record lacks are not compared.
record(no_inv [["eps": 1, "a": 3.0, "b": 1.0]] "${FLOOR}" "")
gate_case(dropped-check-fails fail no_inv r3
     "contract invariants r: value r.a over r.b min_pct 200 max_pct 400: FAIL: dropped")
gate_case(added-check-fails fail r3 no_inv "max_pct 400: FAIL: not in the baseline")
string(REPLACE "70" "50" LOOSE "${FLOOR}")
record(loose [["eps": 1, "a": 3.0, "b": 1.0]] "${LOOSE}" "${RATIO}")
gate_case(loosened-gate-fails fail loose r3 "gates r: metric eps floor_pct 50: FAIL")
string(REPLACE "200" "100" WIDE "${RATIO}")
record(wide [["eps": 1, "a": 3.0, "b": 1.0]] "${FLOOR}" "${WIDE}")
gate_case(moved-bound-fails fail wide r3 "min_pct 100 max_pct 400: FAIL: not in")
set(CPUS 4)
record(wide4 [["eps": 1, "a": 3.0, "b": 1.0]] "${FLOOR}" "${WIDE}")
set(CPUS 1)
gate_case(bound-for-other-class-passes pass wide4 r3)
file(READ "${WORK_DIR}/new_run.json" shared)
string(JSON shared SET "${shared}" runs r "{\"eps\": 1}")
string(JSON shared SET "${shared}" gates 1 "${FLOOR}")
file(WRITE "${WORK_DIR}/shared.json" "${shared}")
gate_case(shared-baseline-passes pass no_inv shared)

# Every committed baseline passes against itself, with one evaluated or
# skipped row per declared invariant.
get_filename_component(repo "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
file(GLOB baselines "${repo}/BENCH_*.json")
if(NOT baselines)
  message(SEND_ERROR "no BENCH_*.json found under ${repo}")
endif()
foreach(path ${baselines})
  file(READ "${path}" doc)
  string(JSON n_inv LENGTH "${doc}" invariants)
  get_filename_component(name "${path}" NAME_WE)
  file(WRITE "${WORK_DIR}/${name}.json" "${doc}")
  gate_case("${name}.json-self-passes" pass ${name} ${name}
            "0 failed, [0-9]+ skipped of [0-9]+ gate\\(s\\) and ${n_inv} invariant")
  string(REGEX MATCHALL "-- invariant [^\n]*: (ok|skipped)" rows "${gate_out}")
  list(LENGTH rows n_rows)
  if(NOT n_rows EQUAL n_inv)
    message(SEND_ERROR "${name}: ${n_rows} of ${n_inv} invariants evaluated")
  endif()
endforeach()
