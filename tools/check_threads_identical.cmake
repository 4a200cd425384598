# `--threads` is an execution knob only: a simulate run with worker
# threads must write the same spool as the single-threaded run of the
# same scenario. Runs `dnsctx simulate --binary-logs --houses 4 --hours 1
# [ARGS...] --threads THREADS` into OUT and compares every segment file
# with the reference spool REF byte for byte. Every segment must be v2.
#
#   cmake -DDNSCTX=path/to/dnsctx -DOUT=dir -DREF=dir -P check_threads_identical.cmake
#
# Optional:
#   -DARGS=--transport;dot      extra simulate flags for both runs
#   -DTHREADS=N                 worker threads of the checked run (default 2)
#   -DREF_THREADS=N             write REF first, with --threads N (default:
#                               REF was written by another test)
#   -DREQUIRE_KIND=enc          fail unless the spool holds segments of this kind
foreach(var DNSCTX OUT REF)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED THREADS)
  set(THREADS 2)
endif()

function(simulate dir threads)
  file(REMOVE_RECURSE "${dir}")
  execute_process(
    COMMAND "${DNSCTX}" simulate --out "${dir}" --houses 4 --hours 1 --binary-logs ${ARGS}
            --threads ${threads}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dnsctx simulate ${ARGS} --threads ${threads} failed: ${rc}")
  endif()
endfunction()

if(DEFINED REF_THREADS)
  simulate("${REF}" ${REF_THREADS})
endif()
simulate("${OUT}" ${THREADS})

file(GLOB ref_segments RELATIVE "${REF}" "${REF}/*.seg")
file(GLOB out_segments RELATIVE "${OUT}" "${OUT}/*.seg")
list(SORT ref_segments)
list(SORT out_segments)
if(NOT ref_segments)
  message(FATAL_ERROR "no segment files in the reference spool ${REF}")
endif()
if(DEFINED REQUIRE_KIND)
  file(GLOB required RELATIVE "${OUT}" "${OUT}/${REQUIRE_KIND}-*.seg")
  if(NOT required)
    message(FATAL_ERROR "no ${REQUIRE_KIND} segments in ${OUT}")
  endif()
endif()
if(NOT ref_segments STREQUAL out_segments)
  message(FATAL_ERROR "segment files differ: [${ref_segments}] vs [${out_segments}]")
endif()
foreach(segment IN LISTS ref_segments)
  file(READ "${OUT}/${segment}" version OFFSET 4 LIMIT 2 HEX)
  if(NOT version STREQUAL "0200")
    message(FATAL_ERROR "${segment} is not a v2 segment (version bytes ${version})")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${REF}/${segment}" "${OUT}/${segment}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${segment} differs between --threads ${THREADS} and the reference run")
  endif()
endforeach()
