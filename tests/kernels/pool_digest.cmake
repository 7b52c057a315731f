# Pool-size determinism test driver, run by ctest (see
# tests/CMakeLists.txt):
#
#   cmake -DEXE=<kaldi_pool_digest> -P pool_digest.cmake
#
# Runs the Kaldi digest program with kernel pools of 0, 1 and 3
# workers (REUSE_KERNEL_THREADS sizes the process-wide pool once) and
# fails unless each run reports its pool size and all three print the
# same digest.

if(NOT EXE)
    message(FATAL_ERROR "usage: cmake -DEXE=... -P pool_digest.cmake")
endif()

set(want "")
foreach(workers 0 1 3)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
                REUSE_KERNEL_THREADS=${workers} ${EXE}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${workers} workers: exit ${rc}\n${out}${err}")
    endif()
    if(NOT out MATCHES "workers ${workers} digest ([0-9a-f]+)")
        message(FATAL_ERROR "${workers} workers: unexpected output: ${out}")
    endif()
    set(got "${CMAKE_MATCH_1}")
    message(STATUS "${workers} workers: digest ${got}")
    if(want STREQUAL "")
        set(want "${got}")
    elseif(NOT got STREQUAL want)
        message(FATAL_ERROR
            "${workers} workers: digest ${got}, 0 workers: ${want}")
    endif()
endforeach()
