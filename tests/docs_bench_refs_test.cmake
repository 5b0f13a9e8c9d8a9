# Every bench and bench record the documentation names must exist: a
# `BENCH_<x>.json` at the repository root, a `bench_<x>` as
# bench/bench_<x>.cpp or bench/bench_<x>.h. CHANGES.md is history and
# ROADMAP.md a plan, so neither is scanned.
file(GLOB docs "${ROOT}/docs/*.md")
set(missing "")
foreach(doc "${ROOT}/README.md" "${ROOT}/EXPERIMENTS.md" "${ROOT}/DESIGN.md"
            ${docs})
  file(READ "${doc}" text)
  file(RELATIVE_PATH name "${ROOT}" "${doc}")
  string(REGEX MATCHALL "BENCH_[A-Za-z0-9_]+\\.json" records "${text}")
  foreach(record IN LISTS records)
    if(NOT EXISTS "${ROOT}/${record}")
      list(APPEND missing "${name} names ${record}")
    endif()
  endforeach()
  # The leading character keeps identifiers such as `perfbench_x` out.
  string(REGEX MATCHALL "(^|[^A-Za-z0-9_])bench_[A-Za-z0-9_]+" benches
         "${text}")
  foreach(match IN LISTS benches)
    string(REGEX MATCH "bench_[A-Za-z0-9_]+" bench "${match}")
    if(bench AND NOT EXISTS "${ROOT}/bench/${bench}.cpp"
       AND NOT EXISTS "${ROOT}/bench/${bench}.h")
      list(APPEND missing "${name} names ${bench}")
    endif()
  endforeach()
endforeach()
if(missing)
  list(REMOVE_DUPLICATES missing)
  list(JOIN missing "\n  " report)
  message(FATAL_ERROR "documentation names missing benches:\n  ${report}")
endif()
