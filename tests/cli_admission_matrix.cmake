# Admission matrix: every GraphSource family, at two small sizes and two
# seeds, through every registry pipeline, via `lad profile P --graph SPEC`
# and `lad audit SPEC P`. A cell either runs clean (exit 0: encode -> decode
# -> verify -> echo, and an audit without violations) or is rejected at the
# pipeline's admission point (exit 2, "inadmissible input: requires ..." on
# stderr). Exit 3 (a wrong output or an audit violation) or 4 (a contract
# violation escaping a stage) fails the cell, and both verbs must agree on
# whether the graph is admissible.
#
# The sizes are small for tier-1 time only: larger members such as
# regular:64x4, torus:7x7, hypercube:8 or banded:40x5x3x6@2 spend 30-55 s
# exhausting the 50M-step witness search budget before their exit 2.
#
# Usage: cmake -DLAD_CLI=<path> -P cli_admission_matrix.cmake
if(NOT LAD_CLI)
  message(FATAL_ERROR "cli_admission_matrix.cmake needs LAD_CLI")
endif()

set(families
  cycle:12 cycle:33
  path:9 path:32
  grid:4x4 grid:5x7
  torus:4x4 torus:3x6
  ladder:6 ladder:9
  regular:16x3 regular:20x4
  banded:24x4x3x5 banded:50x3x2x4
  twocycles:24x8 twocycles:24x9
  complete:4 complete:6
  star:5 star:12
  hypercube:3 hypercube:5
  tree:20x3 tree:40x4)
set(pipelines orientation splitting three_coloring delta_coloring subexp_lcl decompress)

# Runs one verb of one cell; sets `rc` in the caller, and appends to
# `failures` unless the exit is 0, or 2 with the requirement named.
macro(run_cell label)
  execute_process(
    COMMAND ${LAD_CLI} ${ARGN}
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(rc EQUAL 2)
    if(NOT err MATCHES "inadmissible input: requires" OR err MATCHES "LAD_CHECK failed")
      list(APPEND failures "${label}: exit 2 without a named requirement: ${err}")
    endif()
  elseif(NOT rc EQUAL 0)
    list(APPEND failures "${label}: exit ${rc}: ${err}")
  endif()
endmacro()

set(failures)
set(passed 0)
set(rejected 0)
foreach(family ${families})
  foreach(seed 1 2)
    set(spec ${family}@${seed})
    foreach(p ${pipelines})
      run_cell("profile ${p} ${spec}" profile ${p} --graph ${spec} --threads 1)
      set(profile_rc ${rc})
      run_cell("audit ${spec} ${p}" audit ${spec} ${p})
      if((profile_rc EQUAL 2 AND NOT rc EQUAL 2) OR (rc EQUAL 2 AND NOT profile_rc EQUAL 2))
        list(APPEND failures "${p} ${spec}: profile exit ${profile_rc}, audit exit ${rc}")
      endif()
      if(profile_rc EQUAL 0)
        math(EXPR passed "${passed} + 1")
      elseif(profile_rc EQUAL 2)
        math(EXPR rejected "${rejected} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

list(LENGTH failures n_failures)
if(n_failures GREATER 0)
  string(REPLACE ";" "\n" lines "${failures}")
  message(FATAL_ERROR "${n_failures} admission-matrix cell(s) failed:\n${lines}")
endif()
# A matrix that admits nothing, or rejects nothing, tests nothing.
if(passed EQUAL 0 OR rejected EQUAL 0)
  message(FATAL_ERROR "vacuous matrix: ${passed} cells ran clean, ${rejected} rejected")
endif()
message(STATUS "admission matrix: ${passed} cells ran clean, ${rejected} rejected")
