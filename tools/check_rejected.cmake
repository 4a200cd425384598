# A rejected input must fail loudly: runs the command given after `--`
# and requires a nonzero exit status and EXPECT on stderr (the offending
# flag's name, or the file and line of a bad config). With
# -DEMPTY_STDOUT=1 the command must also print nothing on stdout, for a
# refusal that has to come before any output.
#
#   cmake -DEXPECT=--houses -P check_rejected.cmake -- path/to/dnsctx simulate --houses -5
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "missing -DEXPECT=...")
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

execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "accepted (exit 0): ${command}")
endif()
if(EMPTY_STDOUT AND NOT out STREQUAL "")
  message(FATAL_ERROR "exit ${rc}, but printed before refusing:\n${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "exit ${rc}, but stderr does not name '${EXPECT}':\n${err}")
endif()
