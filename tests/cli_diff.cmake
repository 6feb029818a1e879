# Pins the `lad diff` exit-code contract end to end, the machine interface
# CI's bench-regression and profile-smoke jobs gate on:
#   0 — identical documents (clean)
#   3 — timing beyond baseline + max(tol_ms, tol_rel * baseline)
#   4 — deterministic leaf, suite or record set diverged
#   2 — parse/usage error (missing file)
# The fixtures are hand-written schema-8 run documents in tests/golden/:
# diffbench_*.json as `lad bench` writes them, rundiff_*.json as `lad
# profile` does. KIND picks the producer under test (bench, or run).
#
# Usage: cmake -DLAD_CLI=<path> -DGOLDEN=<dir> -DKIND=bench|run -P cli_diff.cmake
foreach(v LAD_CLI GOLDEN KIND)
  if(NOT ${v})
    message(FATAL_ERROR "cli_diff.cmake needs -D${v}")
  endif()
endforeach()

# expect_diff(<exit code> <stdout regex, "" for none> <lad diff args...>)
function(expect_diff code pattern)
  execute_process(
    COMMAND ${LAD_CLI} diff ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR "`lad diff ${ARGN}` must exit ${code}, got ${rc}:\n${out}${err}")
  endif()
  if(pattern AND NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "`lad diff ${ARGN}` output does not name ${pattern}:\n${out}")
  endif()
endfunction()

set(B ${GOLDEN}/diffbench)
set(R ${GOLDEN}/rundiff)

if(KIND STREQUAL "bench")
  # Bench documents: every shared thread count is timed (here the serial
  # row slowed down), the output digest is one of the deterministic leaves.
  # A loose tolerance must absorb the slowdown (CI uses this knob).
  expect_diff(0 "clean" ${B}_base.json ${B}_base.json)
  expect_diff(3 "t=1 wall_ms" ${B}_base.json ${B}_slow.json)
  expect_diff(0 "clean" ${B}_base.json ${B}_slow.json --tol-ms 100000)
  expect_diff(4 "\"digest\"" ${B}_base.json ${B}_digest.json --json)
  expect_diff(2 "" ${B}_base.json /nonexistent/bench.json)
elseif(KIND STREQUAL "run")
  # Run records: wall_ms is timed per matching thread count (here only the
  # 4-thread row slowed down); the per-round series is deterministic, and
  # a finding names the leaf's path (the second round is rounds[1]).
  expect_diff(0 "clean" ${R}_base.json ${R}_base.json)
  expect_diff(3 "t=4 wall_ms" ${R}_base.json ${R}_slow.json)
  expect_diff(0 "clean" ${R}_base.json ${R}_slow.json --tol-ms 100000)
  expect_diff(4 "\"rounds\\[1\\]\\.messages\"" ${R}_base.json ${R}_rounds.json --json)
  expect_diff(2 "" ${R}_base.json /nonexistent/run.json)
else()
  message(FATAL_ERROR "cli_diff.cmake: KIND must be bench or run, got ${KIND}")
endif()

# A bench document against a profile record is graded like any other pair:
# the suites and the record sets differ, in either order.
expect_diff(4 "\\[records\\]" ${B}_base.json ${R}_base.json)
expect_diff(4 "\\[suite\\]" ${R}_base.json ${B}_base.json)
