# Runs CMD (a ;-separated command line), then requires its exit code to be
# EXIT and its combined stdout/stderr to contain every string in EXPECT.
#
#   cmake -DCMD=<tool;args...> -DEXIT=<code> -DEXPECT=<s1;s2...> \
#         -P ExpectOutput.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE Code
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Out)
if(NOT Code STREQUAL EXIT)
  message(FATAL_ERROR "'${CMD}' exited ${Code}, expected ${EXIT}:\n${Out}")
endif()
foreach(Needle IN LISTS EXPECT)
  string(FIND "${Out}" "${Needle}" Pos)
  if(Pos EQUAL -1)
    message(FATAL_ERROR "'${CMD}' output lacks '${Needle}':\n${Out}")
  endif()
endforeach()
