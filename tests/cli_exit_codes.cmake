# Pins the uniform `lad` exit-code convention (tools/lad_cli.cpp header):
#   0 — success / checked property holds
#   2 — usage error
#   3 — soft failure (checked property does not hold)
#   4 — hard failure (internal error, contract violation)
# Soft-fail 3 is covered per-verb by cli_diff.cmake (the cli_diffbench and
# cli_diffprof ctests) and cli_lint.cmake; this script pins the 0 / 2 / 4
# corners every verb shares through main().
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
