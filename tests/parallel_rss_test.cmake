# Bounded memory of the parallel count path: listing a dense graph with a
# counting sink on 4 threads must not buffer its triangles. Writes K_320
# (C(320, 3) = 5,410,240 triangles) as a text edge list, runs the four
# fundamental methods with --threads 1 and --threads 4, and requires the
# parallel peak RSS to stay within 10% + 4 MB of the serial one.
set(graph_file "${WORKDIR}/parallel_rss_k320.txt")
set(k 320)
math(EXPR last "${k} - 1")
set(edges "")
foreach(u RANGE 0 ${last})
  math(EXPR first "${u} + 1")
  if(first LESS k)
    foreach(v RANGE ${first} ${last})
      string(APPEND edges "${u} ${v}\n")
    endforeach()
  endif()
endforeach()
file(WRITE "${graph_file}" "${edges}")

function(peak_rss threads out_var)
  execute_process(
    COMMAND "${CLI}" run --in "${graph_file}" --methods fundamental
            --order D --threads ${threads} --report json
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "--threads ${threads} failed: ${out} ${err}")
  endif()
  string(REGEX MATCHALL "\"triangles\": [0-9]+" counts "${out}")
  foreach(count IN LISTS counts)
    if(NOT count STREQUAL "\"triangles\": 5410240")
      message(FATAL_ERROR "--threads ${threads}: wrong count ${count}")
    endif()
  endforeach()
  string(REGEX MATCH "\"peak_rss_bytes\": ([0-9]+)" rss "${out}")
  if(rss STREQUAL "")
    message(FATAL_ERROR "--threads ${threads}: no peak_rss_bytes: ${out}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

peak_rss(1 serial)
peak_rss(4 parallel)
if(NOT SANITIZE STREQUAL "")
  # Sanitizer runtimes add shadow memory and per-thread state of their
  # own; there the run checks the counts only.
  message(STATUS "sanitized build (${SANITIZE}): RSS bound not checked")
  return()
endif()
# Integer bound in KiB: serial * 1.1 + 4 MiB.
math(EXPR serial_kib "${serial} / 1024")
math(EXPR parallel_kib "${parallel} / 1024")
math(EXPR bound_kib "${serial_kib} + ${serial_kib} / 10 + 4096")
message(STATUS "peak RSS: serial ${serial_kib} KiB, "
               "4 threads ${parallel_kib} KiB, bound ${bound_kib} KiB")
if(parallel_kib GREATER bound_kib)
  message(FATAL_ERROR
          "parallel peak RSS ${parallel_kib} KiB exceeds ${bound_kib} KiB "
          "(serial ${serial_kib} KiB + 10% + 4 MiB)")
endif()
