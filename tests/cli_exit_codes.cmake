# Pins the uniform `lad` exit-code convention (tools/lad_cli.cpp header):
#   0 — success / checked property holds
#   2 — usage error or inadmissible input, naming the requirement
#   3 — soft failure (checked property does not hold)
#   4 — hard failure (internal error, contract violation)
# Soft-fail 3 is covered per-verb by cli_diff.cmake (the cli_diffbench and
# cli_diffprof ctests) and cli_lint.cmake; this script pins the 0 / 2 / 4
# corners every verb shares through main(). cli_admission_matrix.cmake runs
# the inadmissible-input side of 2 over every family and pipeline.
#
# Usage: cmake -DLAD_CLI=<path> -P cli_exit_codes.cmake
if(NOT LAD_CLI)
  message(FATAL_ERROR "cli_exit_codes.cmake needs LAD_CLI")
endif()

function(expect_exit code)
  execute_process(
    COMMAND ${LAD_CLI} ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR "`lad ${ARGN}` must exit ${code}, got ${rc}:\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

# A graph outside a pipeline's theorem exits 2 with the failed requirement
# on stderr — rejected at the admission point, not by a deep LAD_CHECK.
function(expect_rejected requirement)
  expect_exit(2 ${ARGN})
  if(NOT err MATCHES "inadmissible input: requires ${requirement}" OR
     err MATCHES "LAD_CHECK failed")
    message(FATAL_ERROR "`lad ${ARGN}` must name '${requirement}' on stderr, got:\n${err}")
  endif()
endfunction()

expect_exit(2)                      # no verb at all
expect_exit(2 definitely-no-verb)   # unknown verb
expect_exit(2 gen)                  # verb with missing required args
expect_exit(0 gen cycle:12@1)       # a working verb succeeds with 0
expect_exit(0 lint --list-rules)    # informational paths are 0 too
# contract violation is hard: the bench ran, but its JSON cannot be written
expect_exit(4 bench smoke --threads 1 --json /nonexistent/dir/b.json)

# The pre-GraphSource verbs are gone: `lad bench --graph F --pipeline P`
# and the e9 suite cover them.
foreach(verb orient compress color3 proof)
  expect_exit(2 ${verb} /nonexistent/graph.txt 1)
endforeach()

# faultsim fault/policy flags: bad names are usage errors, and a run with
# every new knob engaged still honors the silent-corruption contract (0).
expect_exit(2 faultsim orientation cycle 64 5 1 --targeting bogus)
expect_exit(2 faultsim orientation cycle 64 5 1 --policy bogus)
expect_exit(2 faultsim orientation cycle 64 5 1 --no-such-flag)
# Malformed numbers are usage errors too, never a 0-trial campaign that
# reports "no silent corruption" without testing anything.
expect_exit(2 faultsim orientation cycle 64x 5 1)
expect_exit(2 faultsim orientation cycle 100 abc)
expect_exit(2 faultsim orientation cycle 100 0)
expect_exit(2 faultsim orientation cycle 100 5 xyz)
expect_exit(2 faultsim orientation cycle 64 5 1 --dup 7)
expect_exit(2 faultsim orientation cycle 64 5 1 --delay 1.5)
expect_exit(2 faultsim orientation cycle 64 5 1 --delay -0.1)
expect_exit(0 faultsim orientation cycle 64 5 1
            --crash-recovery 2 --dup 0.02 --delay 0.02 --max-delay 2
            --targeting high_degree --burst 1 --burst-radius 1 --policy budgeted)

# chaos: unknown matrix coordinates are usage errors; a tiny passing matrix
# exits 0 (markdown goes to a scratch file, not the source tree).
expect_exit(2 chaos --pipelines bogus)
expect_exit(2 chaos --models bogus)
expect_exit(2 chaos --policies bogus)
expect_exit(0 chaos --pipelines orientation --families cycle --models mixed
            --policies strict -n 48 --trials 2
            --out ${CMAKE_CURRENT_BINARY_DIR}/chaos_exit_scratch.md)

# Inadmissible inputs exit 2 naming the requirement. A long even cycle is
# admissible for delta_coloring: its repair cap, derived from Δ = 2, lets
# the parity repair reach far enough.
expect_rejected("a bipartite graph" profile splitting --graph cycle:101 --threads 1)
expect_rejected("a graph with a vertex-3-coloring"
                profile three_coloring --graph complete:6 --threads 1)
expect_rejected("no K_5 component" profile delta_coloring --graph complete:5 --threads 1)
expect_exit(0 profile delta_coloring --graph cycle:4096 --threads 1)
# `lad bench` records a rejected source as the case's error row, exit 2.
expect_exit(2 bench --graph cycle:101 --pipeline splitting --threads 1)
if(NOT out MATCHES "ERROR: splitting: inadmissible input: requires a bipartite graph")
  message(FATAL_ERROR "`lad bench` must print the rejection as an error row, got:\n${out}")
endif()

# Every numeric argument is read as a whole token: a malformed one exits 2
# naming itself on stderr, instead of running with 0 or a truncated prefix.
function(expect_malformed token)
  expect_exit(2 ${ARGN})
  if(NOT err MATCHES "'${token}'")
    message(FATAL_ERROR "`lad ${ARGN}` must name '${token}' on stderr, got:\n${err}")
  endif()
endfunction()

expect_malformed(abc chaos --pipelines orientation --families cycle --models mixed
                 --policies strict -n 48 --trials 2 --seed abc)
expect_malformed(1x bench smoke --threads 1x)
expect_malformed(2z profile orientation --graph cycle:64 --reps 2z)
expect_malformed(xyz verify-claims --seed xyz)
expect_malformed(256x report --ns 256x,512,1024)
expect_malformed(3r audit cycle:64 gather 3r)
expect_malformed(2q faultsim orientation cycle 64 5 1 --burst 2q)
expect_malformed(fast diff a.json b.json --tol-ms fast)
