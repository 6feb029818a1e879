# Pins the GraphSource surface of the CLI (tools/lad_cli.cpp):
#   * `lad gen <spec> --out g.ladg` writes the binary format; exit 0
#   * `lad bench --graph` runs end-to-end from a .ladg file AND from an
#     in-memory generator spec, and the two must agree on graph_digest —
#     load-from-file vs in-memory build byte-identity, via the real CLI
#   * unknown sources, truncated files, and bad magic exit 2 naming the
#     offender (bad-version rejection is pinned in test_ladg.cpp, which
#     can patch single binary bytes)
#
# Usage: cmake -DLAD_CLI=<path> -DOUT_DIR=<dir> -P cli_graph_source.cmake
if(NOT LAD_CLI OR NOT OUT_DIR)
  message(FATAL_ERROR "cli_graph_source.cmake needs LAD_CLI and OUT_DIR")
endif()

function(run_lad rcvar outvar)
  execute_process(
    COMMAND ${LAD_CLI} ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  set(${rcvar} ${rc} PARENT_SCOPE)
  set(${outvar} "${out}${err}" PARENT_SCOPE)
endfunction()

function(expect_exit code)
  run_lad(rc out ${ARGN})
  if(NOT rc EQUAL ${code})
    message(FATAL_ERROR "`lad ${ARGN}` must exit ${code}, got ${rc}:\n${out}")
  endif()
endfunction()

set(ladg ${OUT_DIR}/cli_source_cycle.ladg)

# Spec-form generation into the binary format.
expect_exit(0 gen cycle:4096@1 --out ${ladg})
if(NOT EXISTS ${ladg})
  message(FATAL_ERROR "lad gen --out did not write ${ladg}")
endif()

# Bench from the file (threads=2 exercises the parallel CSR rebuild) and
# from the equivalent in-memory spec; both exit 0 (identical outputs).
run_lad(rc out bench --graph ${ladg} --reps 1 --threads 2
        --json ${OUT_DIR}/cli_source_file.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench --graph <file.ladg> failed (${rc}):\n${out}")
endif()
run_lad(rc out bench --graph cycle:4096@1 --reps 1 --threads 1
        --json ${OUT_DIR}/cli_source_mem.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench --graph <spec> failed (${rc}):\n${out}")
endif()

# The acceptance axis: the graph digest from the mmap-loaded file equals
# the digest of the in-memory build of the same spec.
file(READ ${OUT_DIR}/cli_source_file.json file_json)
file(READ ${OUT_DIR}/cli_source_mem.json mem_json)
string(REGEX MATCH "\"graph_digest\": \"[0-9a-f]+\"" file_digest "${file_json}")
string(REGEX MATCH "\"graph_digest\": \"[0-9a-f]+\"" mem_digest "${mem_json}")
if(file_digest STREQUAL "" OR NOT file_digest STREQUAL mem_digest)
  message(FATAL_ERROR "graph_digest mismatch between .ladg load and in-memory build:\n"
                      "file: ${file_digest}\nmem:  ${mem_digest}")
endif()

# Unknown sources exit 2 and name the offender, on every migrated verb.
run_lad(rc out gen nosuch:12 --out ${OUT_DIR}/cli_source_scratch.txt)
if(NOT rc EQUAL 2 OR NOT out MATCHES "nosuch:12")
  message(FATAL_ERROR "gen with unknown source must exit 2 naming it, got ${rc}:\n${out}")
endif()
# The source comes first; anything after it but --out is named and refused.
run_lad(rc out gen cycle 500 1)
if(NOT rc EQUAL 2 OR NOT out MATCHES "'500'")
  message(FATAL_ERROR "gen with a leftover argument must exit 2 naming it, got ${rc}:\n${out}")
endif()
run_lad(rc out bench --graph nosuch:12)
if(NOT rc EQUAL 2 OR NOT out MATCHES "nosuch:12")
  message(FATAL_ERROR "bench with unknown source must exit 2 naming it, got ${rc}:\n${out}")
endif()
run_lad(rc out audit nosuch:12 orientation)
if(NOT rc EQUAL 2 OR NOT out MATCHES "nosuch:12")
  message(FATAL_ERROR "audit with unknown source must exit 2 naming it, got ${rc}:\n${out}")
endif()
expect_exit(2 profile orientation --graph nosuch:12)
expect_exit(2 verify-claims --family orientation --graphs cycle:64,nosuch:12,cycle:256)

# --graphs needs at least 3 sources and an explicit --family.
expect_exit(2 verify-claims --family orientation --graphs cycle:64,cycle:128)
expect_exit(2 verify-claims --graphs cycle:64,cycle:128,cycle:256)

# Campaign family tokens go through the same parser: offender named, 2.
run_lad(rc out faultsim orientation pentagon 64 2 1)
if(NOT rc EQUAL 2 OR NOT out MATCHES "pentagon")
  message(FATAL_ERROR "faultsim with unknown family must exit 2 naming it, got ${rc}:\n${out}")
endif()
expect_exit(2 chaos --families star)  # parses, but not a campaign family

# Corrupt .ladg files are input-document problems: exit 2, not 4.
file(WRITE ${OUT_DIR}/cli_source_trunc.ladg "LADG")
expect_exit(2 audit ${OUT_DIR}/cli_source_trunc.ladg orientation)
expect_exit(2 bench --graph ${OUT_DIR}/cli_source_trunc.ladg)
file(WRITE ${OUT_DIR}/cli_source_badmagic.ladg
     "NOTAGRAPHFILE-but-long-enough-to-clear-the-size-check-padding-padding")
expect_exit(2 audit ${OUT_DIR}/cli_source_badmagic.ladg orientation)

# A positive sweep through the migrated verbs, from one shared .ladg.
expect_exit(0 audit ${ladg} orientation)
expect_exit(0 dot ${ladg})
