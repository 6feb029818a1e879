# Pins the `lad diff` exit-code contract end to end, the machine interface
# CI's bench-regression and profile-smoke jobs gate on:
#   0 — identical documents (clean)
#   3 — timing beyond baseline + max(tol_ms, tol_rel * baseline)
#   4 — deterministic field diverged
#   2 — parse/usage error (missing file), or a bench document diffed
#       against a run record
# The fixtures are hand-written: diffbench_*.json are bench schema-v3
# documents, rundiff_*.json are run records, all in tests/golden/. KIND
# picks the document kind under test (bench, or run for run records).
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
  # Bench documents: the serial wall time is the timed row, the output
  # digest one of the deterministic fields. A loose tolerance must absorb
  # the slowdown (CI uses this knob).
  expect_diff(0 "clean" ${B}_base.json ${B}_base.json)
  expect_diff(3 "wall_ms_1t" ${B}_base.json ${B}_slow.json)
  expect_diff(0 "clean" ${B}_base.json ${B}_slow.json --tol-ms 100000)
  expect_diff(4 "\"digest\"" ${B}_base.json ${B}_digest.json --json)
  expect_diff(2 "" ${B}_base.json /nonexistent/bench.json)
elseif(KIND STREQUAL "run")
  # Run records: total_ms is timed per matching thread count (here only the
  # 4-thread row slowed down); the per-round series is deterministic.
  expect_diff(0 "clean" ${R}_base.json ${R}_base.json)
  expect_diff(3 "t=4 \\[total_ms\\]" ${R}_base.json ${R}_slow.json)
  expect_diff(0 "clean" ${R}_base.json ${R}_slow.json --tol-ms 100000)
  expect_diff(4 "\"rounds\\[2\\]\"" ${R}_base.json ${R}_rounds.json --json)
  expect_diff(2 "" ${R}_base.json /nonexistent/run.json)
else()
  message(FATAL_ERROR "cli_diff.cmake: KIND must be bench or run, got ${KIND}")
endif()

# The two document kinds never diff against each other, in either order.
expect_diff(2 "" ${B}_base.json ${R}_base.json)
expect_diff(2 "" ${R}_base.json ${B}_base.json)
