# The sanitizer gate matrix (docs/STATIC_ANALYSIS.md, `ctest -L sanitize`).
#
# Each row is a child configure+build of this source tree under one
# sanitizer (cmake/SanitizerSmoke.cmake does the heavy lifting), covering
# the surfaces that sanitizer is best at:
#
#   ubsan_smoke  undefined + GATHER_CHECK contracts  test_geometry, test_sim
#   asan_smoke   address                             test_obs, test_campaign_service,
#                                                    test_algorithm (class-M window walk)
#   tsan_smoke   thread                              test_runner, test_campaign_service,
#                                                    test_kernels (sharded view fill),
#                                                    gather_campaignd + daemon_stress.py
#
# A sanitizer the compiler cannot link is probed at configure time; its row
# is registered DISABLED, so ctest reports a clean "Not Run" skip instead of
# a spurious failure.  Included from StaticAnalysis.cmake inside
# `if(NOT GATHER_SANITIZE)` -- never nest a sanitizer build inside another.

include(CheckCXXSourceCompiles)

function(_gather_probe_sanitizer which out_var)
  set(CMAKE_REQUIRED_FLAGS "-fsanitize=${which}")
  check_cxx_source_compiles("int main() { return 0; }" ${out_var})
  set(${out_var} ${${out_var}} PARENT_SCOPE)
endfunction()

_gather_probe_sanitizer(undefined GATHER_HAS_UBSAN)
_gather_probe_sanitizer(address GATHER_HAS_ASAN)
_gather_probe_sanitizer(thread GATHER_HAS_TSAN)

# _gather_smoke(<name> <sanitize> <invariants> <targets> <runs> [driver driver_bin])
# targets/runs are comma-separated; runs are binary paths under the child
# work dir.  The optional driver is a python script run against a child
# binary (requires Python3, probed by StaticAnalysis.cmake).
function(_gather_smoke name sanitize invariants targets runs)
  set(_cmd ${CMAKE_COMMAND}
      -DSOURCE_DIR=${CMAKE_SOURCE_DIR}
      -DWORK_DIR=${CMAKE_BINARY_DIR}/${name}
      -DSANITIZE=${sanitize}
      -DCHECK_INVARIANTS=${invariants}
      -DTARGETS=${targets}
      -DRUN_TESTS=${runs})
  if(ARGC GREATER 5)
    if(NOT Python3_Interpreter_FOUND)
      message(STATUS "${name}: Python3 not found, daemon driver dropped")
    else()
      list(GET ARGN 0 _driver)
      list(GET ARGN 1 _driver_bin)
      list(APPEND _cmd -DDRIVER=${_driver} -DDRIVER_BIN=${_driver_bin}
                       -DPYTHON=${Python3_EXECUTABLE})
    endif()
  endif()
  list(APPEND _cmd -P ${CMAKE_SOURCE_DIR}/cmake/SanitizerSmoke.cmake)
  add_test(NAME ${name} COMMAND ${_cmd})
  # RUN_SERIAL: the child's parallel compile would starve concurrent tests.
  set_tests_properties(${name} PROPERTIES
    LABELS "sanitize" TIMEOUT 1800 RUN_SERIAL TRUE COST 10000)
endfunction()

_gather_smoke(ubsan_smoke undefined ON
  "test_geometry,test_sim"
  "tests/test_geometry,tests/test_sim")
if(NOT GATHER_HAS_UBSAN)
  set_tests_properties(ubsan_smoke PROPERTIES DISABLED TRUE)
endif()

_gather_smoke(asan_smoke address OFF
  "test_obs,test_campaign_service,test_algorithm"
  "tests/test_obs,tests/test_campaign_service,tests/test_algorithm")
if(NOT GATHER_HAS_ASAN)
  set_tests_properties(asan_smoke PROPERTIES DISABLED TRUE)
endif()

_gather_smoke(tsan_smoke thread OFF
  "test_runner,test_campaign_service,test_kernels,gather_campaignd"
  "tests/test_runner,tests/test_campaign_service,tests/test_kernels"
  ${CMAKE_SOURCE_DIR}/tools/service/daemon_stress.py
  tools/gather_campaignd)
if(NOT GATHER_HAS_TSAN)
  set_tests_properties(tsan_smoke PROPERTIES DISABLED TRUE)
endif()
