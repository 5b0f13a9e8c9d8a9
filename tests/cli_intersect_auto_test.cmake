# `--intersect auto` with method and order pinned is a plan of one axis:
# the report says the planner ran, only the backend was free, and the
# backend it picked is one of the three; the listing matches the merge
# backend's triangles and paper-metric ops.
set(common run --n 3000 --alpha 1.5 --seed 5 --methods E1 --order D
           --report json)

execute_process(
  COMMAND "${CLI}" ${common} --intersect auto
  RESULT_VARIABLE auto_result OUTPUT_VARIABLE auto_out ERROR_VARIABLE err)
if(NOT auto_result EQUAL 0)
  message(FATAL_ERROR "--intersect auto exited ${auto_result}: ${err}")
endif()
execute_process(
  COMMAND "${CLI}" ${common} --intersect merge
  RESULT_VARIABLE merge_result OUTPUT_VARIABLE merge_out ERROR_VARIABLE err)
if(NOT merge_result EQUAL 0)
  message(FATAL_ERROR "--intersect merge exited ${merge_result}: ${err}")
endif()

# Expects the field of the auto run's report at path ARGN to be `want`.
function(expect_auto want)
  string(JSON got GET "${auto_out}" ${ARGN})
  if(NOT got STREQUAL "${want}")
    message(FATAL_ERROR "${ARGN}: got '${got}', want '${want}'")
  endif()
endfunction()

expect_auto(ON plan planned)
expect_auto(OFF plan auto_method)
expect_auto(OFF plan auto_order)
expect_auto(ON plan auto_intersect)
expect_auto(E1 plan methods 0)
expect_auto(theta_D plan order)

string(JSON backend GET "${auto_out}" plan intersect)
if(NOT backend MATCHES "^(merge|bitmap)$")
  message(FATAL_ERROR "plan.intersect is '${backend}'")
endif()
string(JSON exec_backend GET "${auto_out}" exec intersect)
if(NOT exec_backend STREQUAL backend)
  message(FATAL_ERROR "exec.intersect ${exec_backend} != plan ${backend}")
endif()

string(JSON merge_planned GET "${merge_out}" plan planned)
if(NOT merge_planned STREQUAL "OFF")
  message(FATAL_ERROR "--intersect merge ran the planner")
endif()
foreach(field triangles paper_cost ops)
  string(JSON want GET "${merge_out}" methods 0 ${field})
  string(JSON got GET "${auto_out}" methods 0 ${field})
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${field}: auto ${got}, merge ${want}")
  endif()
endforeach()
