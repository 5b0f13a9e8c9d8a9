# `run --methods auto --order auto --intersect auto` on a Pareto
# alpha = 1.5 graph converted to `.tlg` with theta_D embedded: the planner
# races the lookup edge iterators under measured per-op weights, so it
# must pick an L method under theta_D on the merge (an L method has no
# intersection loop), reuse the embedded orientation, and list the
# triangles `--methods E1 --order D` lists.
set(graph_file "${WORKDIR}/cli_auto_plan_graph.txt")
set(tlg_file "${WORKDIR}/cli_auto_plan_graph.tlg")

execute_process(
  COMMAND "${CLI}" generate --n 20000 --alpha 1.5 --seed 11 --out
          "${graph_file}"
  RESULT_VARIABLE gen_result OUTPUT_VARIABLE gen_out ERROR_VARIABLE err)
if(NOT gen_result EQUAL 0)
  message(FATAL_ERROR "generate failed: ${gen_out} ${err}")
endif()
execute_process(
  COMMAND "${CLI}" convert --in "${graph_file}" --out "${tlg_file}"
          --orders D
  RESULT_VARIABLE conv_result OUTPUT_VARIABLE conv_out ERROR_VARIABLE err)
if(NOT conv_result EQUAL 0)
  message(FATAL_ERROR "convert failed: ${conv_out} ${err}")
endif()

execute_process(
  COMMAND "${CLI}" run --in "${tlg_file}" --methods auto --order auto
          --intersect auto --report json
  RESULT_VARIABLE auto_result OUTPUT_VARIABLE auto_out ERROR_VARIABLE err)
if(NOT auto_result EQUAL 0)
  message(FATAL_ERROR "full-auto run exited ${auto_result}: ${err}")
endif()
execute_process(
  COMMAND "${CLI}" run --in "${tlg_file}" --methods E1 --order D
          --report json
  RESULT_VARIABLE e1_result OUTPUT_VARIABLE e1_out ERROR_VARIABLE err)
if(NOT e1_result EQUAL 0)
  message(FATAL_ERROR "E1 run exited ${e1_result}: ${err}")
endif()

# Expects the field of the auto run's report at path ARGN to be `want`.
function(expect_auto want)
  string(JSON got GET "${auto_out}" ${ARGN})
  if(NOT got STREQUAL "${want}")
    message(FATAL_ERROR "${ARGN}: got '${got}', want '${want}'")
  endif()
endfunction()

expect_auto(ON plan planned)
expect_auto(theta_D plan order)
expect_auto(merge plan intersect)
expect_auto(ON orientation cached)

string(JSON planned_count LENGTH "${auto_out}" plan methods)
if(NOT planned_count EQUAL 1)
  message(FATAL_ERROR "planned ${planned_count} methods, want 1")
endif()
string(JSON method GET "${auto_out}" plan methods 0)
if(NOT method MATCHES "^L[1-6]$")
  message(FATAL_ERROR "plan.methods[0] is '${method}', want a lookup "
                      "edge iterator")
endif()
string(JSON ran GET "${auto_out}" methods 0 method)
if(NOT ran STREQUAL method)
  message(FATAL_ERROR "ran ${ran}, planned ${method}")
endif()

string(JSON want GET "${e1_out}" methods 0 triangles)
string(JSON got GET "${auto_out}" methods 0 triangles)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "triangles: auto ${got}, E1 ${want}")
endif()
