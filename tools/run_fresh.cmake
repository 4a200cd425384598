# A test that writes a directory starts from an empty one: removes FRESH,
# then runs the command given after `--` and fails when it fails.
#
#   cmake -DFRESH=dir -P run_fresh.cmake -- path/to/dnsctx simulate --out dir ...
if(NOT DEFINED FRESH)
  message(FATAL_ERROR "missing -DFRESH=...")
endif()

set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command after --")
endif()

file(REMOVE_RECURSE "${FRESH}")
execute_process(COMMAND ${command} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}: ${command}")
endif()
