# Runs TOOL with the "|"-separated ARGS inside a fresh, empty WORKDIR and
# fails unless it exits with status EXPECT and leaves WORKDIR empty.
#
#   cmake -DTOOL=path -DARGS="--rows|abc" -DEXPECT=2 -DWORKDIR=dir \
#         -P expect_exit.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(GLOB written "${WORKDIR}/*")
file(REMOVE_RECURSE "${WORKDIR}")
if(NOT "${result}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${result}, expected ${EXPECT}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(written)
  message(FATAL_ERROR "${TOOL} ${ARGS}: wrote ${written}")
endif()
message(STATUS "exit ${result} as expected: ${err}")
