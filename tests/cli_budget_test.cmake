# `count --mem-budget` and `run --mem-budget --report json` on one .tlg
# take one budgeted path (the runner's partitioned branch, evicting over
# the paged container): they must agree on triangles, paper-metric ops
# and the whole I/O ledger, with several passes. A budgeted .tlg run
# whose orientation is not embedded fails with the `convert` hint, and a
# budgeted --degree-profile run charges exactly its paper cost.
set(graph_file "${WORKDIR}/cli_budget_graph.txt")
set(tlg_file "${WORKDIR}/cli_budget_graph.tlg")

execute_process(
  COMMAND "${CLI}" generate --n 20000 --alpha 1.5 --seed 3 --out
          "${graph_file}"
  RESULT_VARIABLE gen_result OUTPUT_VARIABLE gen_out)
if(NOT gen_result EQUAL 0)
  message(FATAL_ERROR "generate failed: ${gen_out}")
endif()
execute_process(
  COMMAND "${CLI}" convert --in "${graph_file}" --out "${tlg_file}"
          --orders D
  RESULT_VARIABLE conv_result OUTPUT_VARIABLE conv_out)
if(NOT conv_result EQUAL 0)
  message(FATAL_ERROR "convert failed: ${conv_out}")
endif()

foreach(method E1 E2)
  execute_process(
    COMMAND "${CLI}" count --in "${tlg_file}" --method ${method} --order D
            --mem-budget 1M
    RESULT_VARIABLE count_result OUTPUT_VARIABLE count_out
    ERROR_VARIABLE count_err)
  execute_process(
    COMMAND "${CLI}" run --in "${tlg_file}" --methods ${method} --order D
            --mem-budget 1M --report json
    RESULT_VARIABLE run_result OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT count_result EQUAL 0 OR NOT run_result EQUAL 0)
    message(FATAL_ERROR
            "${method}: count or run failed: ${count_err} ${run_err}")
  endif()

  string(REGEX MATCH "triangles ([0-9]+)" m "${count_out}")
  set(count_triangles "${CMAKE_MATCH_1}")
  string(REGEX MATCH "paper-metric ops ([0-9]+)" m "${count_out}")
  set(count_ops "${CMAKE_MATCH_1}")
  string(REGEX MATCH
         "io: ([0-9]+) passes, ([0-9]+) loaded \\+ ([0-9]+) streamed"
         m "${count_out}")
  set(count_io "${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3}")

  string(REGEX MATCH "\"triangles\": ([0-9]+)" m "${run_out}")
  set(run_triangles "${CMAKE_MATCH_1}")
  string(REGEX MATCH "\"paper_cost\": ([0-9]+)" m "${run_out}")
  set(run_ops "${CMAKE_MATCH_1}")
  string(REGEX MATCH "\"passes\": ([0-9]+)" m "${run_out}")
  set(run_passes "${CMAKE_MATCH_1}")
  string(REGEX MATCH "\"bytes_loaded\": ([0-9]+)" m "${run_out}")
  set(run_loaded "${CMAKE_MATCH_1}")
  string(REGEX MATCH "\"bytes_streamed\": ([0-9]+)" m "${run_out}")
  set(run_io "${run_passes} ${run_loaded} ${CMAKE_MATCH_1}")

  if(count_triangles STREQUAL "" OR count_triangles EQUAL 0)
    message(FATAL_ERROR "${method}: count found no triangles: ${count_out}")
  endif()
  if(NOT count_triangles STREQUAL run_triangles OR
     NOT count_ops STREQUAL run_ops)
    message(FATAL_ERROR
            "${method}: count (${count_triangles} triangles, ${count_ops} "
            "ops) and run (${run_triangles}, ${run_ops}) disagree")
  endif()
  if(NOT count_io STREQUAL run_io)
    message(FATAL_ERROR
            "${method}: io ledgers disagree: count '${count_io}', "
            "run '${run_io}'")
  endif()
  if(NOT run_passes GREATER 1)
    message(FATAL_ERROR "${method}: 1M budget ran ${run_passes} pass(es); "
                        "the graph no longer exceeds one partition")
  endif()
endforeach()

execute_process(
  COMMAND "${CLI}" run --in "${tlg_file}" --methods E1 --order D
          --mem-budget 1M --degree-profile --report json
  RESULT_VARIABLE profile_result OUTPUT_VARIABLE profile_out
  ERROR_VARIABLE profile_err)
if(NOT profile_result EQUAL 0)
  message(FATAL_ERROR "budgeted --degree-profile run failed: ${profile_err}")
endif()
string(REGEX MATCH "\"paper_cost\": ([0-9]+)" m "${profile_out}")
set(profile_ops "${CMAKE_MATCH_1}")
string(REGEX MATCH "\"total_measured_ops\": ([0-9]+)" m "${profile_out}")
set(profile_measured "${CMAKE_MATCH_1}")
if(profile_ops STREQUAL "" OR NOT profile_ops STREQUAL profile_measured)
  message(FATAL_ERROR "budgeted profile charged '${profile_measured}' ops, "
                      "the listing counted '${profile_ops}'")
endif()

execute_process(
  COMMAND "${CLI}" run --in "${tlg_file}" --methods E1 --order A
          --mem-budget 1M
  RESULT_VARIABLE missing_result OUTPUT_VARIABLE missing_out
  ERROR_VARIABLE missing_err)
if(NOT missing_result EQUAL 1 OR
   NOT missing_err MATCHES "convert --orders A")
  message(FATAL_ERROR "budgeted run without an embedded orientation "
                      "exited ${missing_result}: ${missing_err}")
endif()
