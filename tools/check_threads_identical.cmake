# `--threads` is an execution knob only: a simulate run with worker
# threads must write the same spool as the single-threaded run of the
# same scenario. Runs `dnsctx simulate --binary-logs --houses 4 --hours 1
# --threads 2` into OUT and compares every segment file with the
# reference spool REF (written without --threads) byte for byte.
#
#   cmake -DDNSCTX=path/to/dnsctx -DOUT=dir -DREF=dir -P check_threads_identical.cmake
foreach(var DNSCTX OUT REF)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
execute_process(
  COMMAND "${DNSCTX}" simulate --out "${OUT}" --houses 4 --hours 1 --binary-logs --threads 2
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dnsctx simulate --threads 2 failed: ${rc}")
endif()

file(GLOB ref_segments RELATIVE "${REF}" "${REF}/*.seg")
file(GLOB out_segments RELATIVE "${OUT}" "${OUT}/*.seg")
list(SORT ref_segments)
list(SORT out_segments)
if(NOT ref_segments)
  message(FATAL_ERROR "no segment files in the reference spool ${REF}")
endif()
if(NOT ref_segments STREQUAL out_segments)
  message(FATAL_ERROR "segment files differ: [${ref_segments}] vs [${out_segments}]")
endif()
foreach(segment IN LISTS ref_segments)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${REF}/${segment}" "${OUT}/${segment}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${segment} differs between --threads 2 and the reference run")
  endif()
endforeach()
