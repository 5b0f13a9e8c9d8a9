# End-to-end CLI test: generate a graph, then count its triangles with two
# methods and require identical counts.
set(graph_file "${WORKDIR}/cli_test_graph.txt")

execute_process(
  COMMAND "${CLI}" generate --n 5000 --alpha 1.7 --seed 9 --out
          "${graph_file}"
  RESULT_VARIABLE gen_result OUTPUT_VARIABLE gen_out)
if(NOT gen_result EQUAL 0)
  message(FATAL_ERROR "generate failed: ${gen_out}")
endif()

execute_process(
  COMMAND "${CLI}" count --in "${graph_file}" --method T1 --order D
  RESULT_VARIABLE count1_result OUTPUT_VARIABLE count1_out)
execute_process(
  COMMAND "${CLI}" count --in "${graph_file}" --method E4 --order RR
  RESULT_VARIABLE count2_result OUTPUT_VARIABLE count2_out)
if(NOT count1_result EQUAL 0 OR NOT count2_result EQUAL 0)
  message(FATAL_ERROR "count failed: ${count1_out} ${count2_out}")
endif()

string(REGEX MATCH "triangles ([0-9]+)" m1 "${count1_out}")
set(t1 "${CMAKE_MATCH_1}")
string(REGEX MATCH "triangles ([0-9]+)" m2 "${count2_out}")
set(t2 "${CMAKE_MATCH_1}")
if(NOT t1 STREQUAL t2)
  message(FATAL_ERROR "triangle counts disagree: T1=${t1} E4=${t2}")
endif()
if(t1 STREQUAL "" OR t1 EQUAL 0)
  message(FATAL_ERROR "no triangles found — suspicious for alpha=1.7")
endif()

# --- Binary container round trip -------------------------------------------
# text -> .tlg (with cached orientations) -> text must reproduce the exact
# input bytes, conversion must be deterministic, and `count` must accept
# the .tlg transparently with the same triangle count.
set(tlg_file "${WORKDIR}/cli_test_graph.tlg")
set(tlg_file2 "${WORKDIR}/cli_test_graph2.tlg")
set(roundtrip_file "${WORKDIR}/cli_test_graph_rt.txt")

execute_process(
  COMMAND "${CLI}" convert --in "${graph_file}" --out "${tlg_file}"
          --orders D,RR --seed 9
  RESULT_VARIABLE conv_result OUTPUT_VARIABLE conv_out)
if(NOT conv_result EQUAL 0)
  message(FATAL_ERROR "convert to .tlg failed: ${conv_out}")
endif()

execute_process(
  COMMAND "${CLI}" info --in "${tlg_file}"
  RESULT_VARIABLE info_result OUTPUT_VARIABLE info_out)
if(NOT info_result EQUAL 0)
  message(FATAL_ERROR "info failed: ${info_out}")
endif()
string(FIND "${info_out}" "csr_offsets" has_sections)
if(has_sections EQUAL -1)
  message(FATAL_ERROR "info output lists no sections: ${info_out}")
endif()

execute_process(
  COMMAND "${CLI}" count --in "${tlg_file}" --method T1 --order D
  RESULT_VARIABLE count3_result OUTPUT_VARIABLE count3_out)
if(NOT count3_result EQUAL 0)
  message(FATAL_ERROR "count on .tlg failed: ${count3_out}")
endif()
string(REGEX MATCH "triangles ([0-9]+)" m3 "${count3_out}")
set(t3 "${CMAKE_MATCH_1}")
if(NOT t3 STREQUAL t1)
  message(FATAL_ERROR "triangle counts disagree: text=${t1} tlg=${t3}")
endif()
string(FIND "${count3_out}" "cached orientation" used_cache)
if(used_cache EQUAL -1)
  message(FATAL_ERROR "count on .tlg did not use the cached orientation")
endif()

execute_process(
  COMMAND "${CLI}" convert --in "${tlg_file}" --out "${roundtrip_file}"
  RESULT_VARIABLE back_result OUTPUT_VARIABLE back_out)
if(NOT back_result EQUAL 0)
  message(FATAL_ERROR "convert back to text failed: ${back_out}")
endif()
file(SHA256 "${graph_file}" text_hash)
file(SHA256 "${roundtrip_file}" roundtrip_hash)
if(NOT text_hash STREQUAL roundtrip_hash)
  message(FATAL_ERROR "text -> .tlg -> text round trip is not byte-identical")
endif()

execute_process(
  COMMAND "${CLI}" convert --in "${graph_file}" --out "${tlg_file2}"
          --orders D,RR --seed 9 --threads 4
  RESULT_VARIABLE conv2_result OUTPUT_VARIABLE conv2_out)
if(NOT conv2_result EQUAL 0)
  message(FATAL_ERROR "second convert failed: ${conv2_out}")
endif()
file(SHA256 "${tlg_file}" tlg_hash)
file(SHA256 "${tlg_file2}" tlg2_hash)
if(NOT tlg_hash STREQUAL tlg2_hash)
  message(FATAL_ERROR ".tlg conversion is not deterministic")
endif()

# --- Observability surface --------------------------------------------------
# `run` with --trace/--metrics/--degree-profile must produce a loadable
# Chrome trace, a Prometheus exposition and a v3 JSON report with the
# degree-residual histogram filled in.
set(trace_file "${WORKDIR}/cli_test_trace.json")
set(metrics_file "${WORKDIR}/cli_test_metrics.prom")
set(report_file "${WORKDIR}/cli_test_report.json")

execute_process(
  COMMAND "${CLI}" run --in "${graph_file}" --methods T1,E1 --order D
          --degree-profile --report json --trace "${trace_file}"
          --metrics "${metrics_file}"
  RESULT_VARIABLE run_result OUTPUT_VARIABLE run_out)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "run with observability flags failed: ${run_out}")
endif()
file(WRITE "${report_file}" "${run_out}")

string(FIND "${run_out}" "\"schema_version\": 5" has_schema)
string(FIND "${run_out}" "\"degree_profiles\": [" has_profiles)
string(FIND "${run_out}" "\"total_measured_ops\"" has_measured)
string(FIND "${run_out}" "\"build\"" has_build)
string(FIND "${run_out}" "\"io\"" has_io)
string(FIND "${run_out}" "\"plan\"" has_plan)
if(has_schema EQUAL -1 OR has_profiles EQUAL -1 OR has_measured EQUAL -1
   OR has_build EQUAL -1 OR has_io EQUAL -1 OR has_plan EQUAL -1)
  message(FATAL_ERROR "run report is missing v4 sections: ${run_out}")
endif()

if(NOT EXISTS "${trace_file}")
  message(FATAL_ERROR "--trace did not write ${trace_file}")
endif()
file(READ "${trace_file}" trace_content)
string(FIND "${trace_content}" "\"traceEvents\"" has_events)
string(FIND "${trace_content}" "\"name\": \"orient\"" has_orient_span)
string(FIND "${trace_content}" "\"git_hash\"" has_provenance)
if(has_events EQUAL -1 OR has_orient_span EQUAL -1 OR has_provenance EQUAL -1)
  message(FATAL_ERROR "trace file is not a valid span trace")
endif()

if(NOT EXISTS "${metrics_file}")
  message(FATAL_ERROR "--metrics did not write ${metrics_file}")
endif()
file(READ "${metrics_file}" metrics_content)
string(FIND "${metrics_content}" "# TYPE trilist_build_info gauge" has_info)
string(FIND "${metrics_content}" "trilist_method_paper_cost_ops_total" has_cost)
string(FIND "${metrics_content}" "trilist_degree_bucket_residual" has_residual)
if(has_info EQUAL -1 OR has_cost EQUAL -1 OR has_residual EQUAL -1)
  message(FATAL_ERROR "metrics file is not a valid exposition")
endif()

# `version` reports build provenance.
execute_process(
  COMMAND "${CLI}" version
  RESULT_VARIABLE ver_result OUTPUT_VARIABLE ver_out)
if(NOT ver_result EQUAL 0)
  message(FATAL_ERROR "version failed: ${ver_out}")
endif()
string(FIND "${ver_out}" "trilist" has_name)
string(FIND "${ver_out}" "flags:" has_flags)
if(has_name EQUAL -1 OR has_flags EQUAL -1)
  message(FATAL_ERROR "version output lacks provenance: ${ver_out}")
endif()

file(REMOVE "${graph_file}" "${tlg_file}" "${tlg_file2}"
     "${roundtrip_file}" "${trace_file}" "${metrics_file}"
     "${report_file}")
