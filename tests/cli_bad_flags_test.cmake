# Numeric flags must parse in full: a value with trailing garbage, or no
# digits at all, is a usage error (exit 2) instead of a silent 0 ("all
# cores" for --threads) or a truncated number.
function(expect_usage_error)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR
            "'${ARGN}' exited ${result}, expected 2: ${out} ${err}")
  endif()
  if(NOT err MATCHES "not a valid number")
    message(FATAL_ERROR "'${ARGN}' printed no diagnostic: ${err}")
  endif()
endfunction()

# --n 50 keeps the run short should a bad value ever be accepted again.
expect_usage_error(run --n 50 --threads abc)
expect_usage_error(run --n 12x)
expect_usage_error(run --n 50 --alpha 1.7z)
expect_usage_error(run --n -5)
expect_usage_error(run --n " -5")

# Integers inside compound values parse the same way. Edge pairs and the
# port are read before any connection is made, so no server is needed.
expect_usage_error(mutate --add 1:x --connect 127.0.0.1:1)
expect_usage_error(mutate --del 1:4294967296 --connect 127.0.0.1:1)
expect_usage_error(query --connect 127.0.0.1:99999 --graph g)
expect_usage_error(query --connect 127.0.0.1:x --graph g)

# A key the subcommand does not declare is a usage error too, never
# silently ignored: `--thread 2` must not run on one thread. Query and
# mutate reject the key before connecting, so no server is needed.
function(expect_unknown_flag key)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR
            "'${ARGN}' exited ${result}, expected 2: ${out} ${err}")
  endif()
  if(NOT err MATCHES "unknown flag --${key}")
    message(FATAL_ERROR "'${ARGN}' did not name --${key}: ${err}")
  endif()
endfunction()

expect_unknown_flag(thread run --n 50 --thread 2)
expect_unknown_flag(method query --connect 127.0.0.1:1 --graph g
                    --method E1)
expect_unknown_flag(ops mutate --connect 127.0.0.1:1 --graph g
                    --add 1:2 --ops x.log)

# Retired options: gallop and simd are no intersect backends (the message
# lists the ones there are), and the bitmap hub threshold is no flag.
foreach(retired gallop simd)
  execute_process(
    COMMAND "${CLI}" run --n 50 --intersect ${retired}
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 2 OR NOT err MATCHES
     "unknown intersect backend '${retired}' \\(merge\\|bitmap\\|auto\\)")
    message(FATAL_ERROR
            "--intersect ${retired} exited ${result}: ${out} ${err}")
  endif()
endforeach()
expect_unknown_flag(bitmap-min-degree run --n 50 --intersect bitmap
                    --bitmap-min-degree 4)
expect_unknown_flag(bitmap-min-degree count --in x.txt
                    --bitmap-min-degree 4)

# `--intersect auto` is a planner axis, so a budget beside it is a usage
# error (the partitioned executors only merge).
execute_process(
  COMMAND "${CLI}" run --n 50 --methods E1 --intersect auto
          --mem-budget 1M
  RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT result EQUAL 2 OR NOT err MATCHES "incompatible")
  message(FATAL_ERROR
          "--intersect auto --mem-budget exited ${result}: ${out} ${err}")
endif()

# A well-formed value still runs.
execute_process(
  COMMAND "${CLI}" run --n 50 --threads 2
  RESULT_VARIABLE ok_result OUTPUT_VARIABLE ok_out ERROR_VARIABLE ok_err)
if(NOT ok_result EQUAL 0)
  message(FATAL_ERROR "run --n 50 --threads 2 failed: ${ok_out} ${ok_err}")
endif()

# `<subcommand> --help` prints that subcommand's usage block and, on a
# closing "flags:" line, every key of its Subcommands() entry — to
# stdout, exit 0. Each accepted key must also be documented in the
# usage block itself (`model --eps` once was not).
foreach(sub generate count run model orders advise convert info serve
            query mutate version)
  execute_process(
    COMMAND "${CLI}" ${sub} --help
    RESULT_VARIABLE result OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "'${sub} --help' exited ${result}: ${out} ${err}")
  endif()
  string(FIND "${out}" "\nflags:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${sub} --help' printed no flags line: ${out}")
  endif()
  string(SUBSTRING "${out}" 0 ${at} usage)
  string(SUBSTRING "${out}" ${at} -1 flag_line)
  if(NOT usage MATCHES "\n  ${sub} ")
    message(FATAL_ERROR "'${sub} --help' printed no usage block: ${out}")
  endif()
  string(REGEX MATCHALL "--[a-z-]+" keys "${flag_line}")
  if(NOT sub MATCHES "^(orders|version)$" AND NOT keys)
    message(FATAL_ERROR "'${sub} --help' listed no flags: ${out}")
  endif()
  foreach(key IN LISTS keys)
    if(NOT usage MATCHES "${key}([^a-z-]|$)")
      message(FATAL_ERROR
              "'${sub} --help' accepts ${key} but its usage omits it")
    endif()
  endforeach()
endforeach()

# Without a subcommand, --help prints every usage block and exits 0.
execute_process(
  COMMAND "${CLI}" --help
  RESULT_VARIABLE help_result OUTPUT_VARIABLE help_out ERROR_VARIABLE help_err)
if(NOT help_result EQUAL 0 OR NOT help_out MATCHES "  mutate ")
  message(FATAL_ERROR "'--help' exited ${help_result}: ${help_out} ${help_err}")
endif()
