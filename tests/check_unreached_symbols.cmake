# Every out-of-line psnt:: function in the libraries must be reached by a
# program that ctest runs: an example, paper_report or bench_pipeline. It is
# the symbol-level companion of check_module_callers.cmake, which cannot see
# an uncalled function inside a header that something does include.
#
#   cmake -B build-syms -S . -DCMAKE_BUILD_TYPE=Debug \
#         -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
#         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections" \
#         -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
#         -DCMAKE_PROJECT_psnt_INCLUDE=$PWD/bench/pipeline/hook.cmake
#   cmake -DROOT=$PWD -DBUILD=build-syms -P tests/check_unreached_symbols.cmake
#
# The script asks ctest for the tests registered in that tree and takes every
# program they run that is built in the tree, outside tests/ (the gtest
# binaries reach everything and prove nothing). It builds those programs,
# then compares the T/W symbols the libpsnt_*.a archives define in namespace
# psnt against what survives the section garbage collection of their links.
# A symbol that no such program keeps fails the check unless
# tests/unreached_symbols.txt lists it (by prefix of its demangled name) with
# a reason; an entry that matches no unreached symbol fails too, so the list
# cannot go stale.
#
# Blind spots: an inline function that no library source calls is never
# emitted into an archive, and a virtual override is kept alive by its
# vtable whether or not anything calls it; neither can show up here.
# Header-only modules remain check_module_callers.cmake's job.
cmake_minimum_required(VERSION 3.19)  # string(JSON)
if(NOT ROOT OR NOT BUILD)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo> -DBUILD=<build dir> "
                      "-P check_unreached_symbols.cmake")
endif()
get_filename_component(BUILD "${BUILD}" ABSOLUTE BASE_DIR "${ROOT}")

# Without section GC every function of a linked object survives, and the
# check would pass on anything: insist on the configuration above.
set(cache "${BUILD}/CMakeCache.txt")
if(NOT EXISTS "${cache}")
  message(FATAL_ERROR "${BUILD} is not a configured build tree")
endif()
file(STRINGS "${cache}" cxx_flags REGEX "^CMAKE_CXX_FLAGS:")
file(STRINGS "${cache}" link_flags REGEX "^CMAKE_EXE_LINKER_FLAGS:")
file(STRINGS "${cache}" hook REGEX "^CMAKE_PROJECT_psnt_INCLUDE:")
if(NOT cxx_flags MATCHES "-ffunction-sections"
   OR NOT link_flags MATCHES "--gc-sections"
   OR NOT hook MATCHES "bench/pipeline/hook.cmake")
  message(FATAL_ERROR "${BUILD} must be configured with -ffunction-sections, "
                      "-Wl,--gc-sections and the bench/pipeline hook "
                      "(see the top of this script)")
endif()

# A test's program is any command word (or -D<var>=<value> value) naming a
# file in the build tree outside tests/: the examples, paper_report (run by
# its golden-compare script) and bench_pipeline.
execute_process(COMMAND "${CMAKE_CTEST_COMMAND}" -N --show-only=json-v1
                WORKING_DIRECTORY "${BUILD}"
                OUTPUT_VARIABLE tests_json RESULT_VARIABLE ctest_result)
if(NOT ctest_result EQUAL 0)
  message(FATAL_ERROR "ctest could not list the tests of ${BUILD}")
endif()
string(JSON test_count LENGTH "${tests_json}" tests)
set(targets "")
set(executables "")
math(EXPR last_test "${test_count} - 1")
foreach(t RANGE ${last_test})
  string(JSON word_count ERROR_VARIABLE no_command
         LENGTH "${tests_json}" tests ${t} command)
  if(no_command)
    continue()
  endif()
  math(EXPR last_word "${word_count} - 1")
  foreach(w RANGE ${last_word})
    string(JSON word GET "${tests_json}" tests ${t} command ${w})
    string(REGEX REPLACE "^-D[A-Za-z_]+=" "" path "${word}")
    string(FIND "${path}" "${BUILD}/" in_build)
    string(FIND "${path}" "${BUILD}/tests/" in_tests)
    if(in_build EQUAL 0 AND NOT in_tests EQUAL 0
       AND NOT IS_DIRECTORY "${path}")
      get_filename_component(name "${path}" NAME)
      list(APPEND targets "${name}")
      list(APPEND executables "${path}")
    endif()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES targets)
list(REMOVE_DUPLICATES executables)
if(NOT targets)
  message(FATAL_ERROR "no test of ${BUILD} runs a program built there")
endif()
list(LENGTH targets target_count)
message(STATUS "ctest runs ${target_count} programs built here: ${targets}")

cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
execute_process(COMMAND "${CMAKE_COMMAND}" --build "${BUILD}" -j ${jobs}
                        --target ${targets}
                RESULT_VARIABLE built)
if(NOT built EQUAL 0)
  message(FATAL_ERROR "building the executables failed")
endif()

# Mangled names: a function whose own name lies in namespace psnt starts
# _ZN4psnt (with K/V/R/O qualifiers for const, volatile and ref members).
set(psnt_symbol "_ZN[KVRO]*4psnt[A-Za-z0-9_.$]*")

file(GLOB_RECURSE archives "${BUILD}/src/libpsnt_*.a")
if(NOT archives)
  message(FATAL_ERROR "no libpsnt_*.a under ${BUILD}/src")
endif()
execute_process(COMMAND nm --defined-only ${archives}
                OUTPUT_VARIABLE nm_out RESULT_VARIABLE nm_result)
if(NOT nm_result EQUAL 0)
  message(FATAL_ERROR "nm failed on the libraries")
endif()
string(REGEX MATCHALL " [TW] ${psnt_symbol}" defined "${nm_out}")
list(TRANSFORM defined REPLACE "^ [TW] " "")
list(REMOVE_DUPLICATES defined)

set(kept "")
foreach(exe IN LISTS executables)
  if(NOT EXISTS "${exe}")
    message(FATAL_ERROR "missing executable ${exe}")
  endif()
  execute_process(COMMAND nm --defined-only "${exe}"
                  OUTPUT_VARIABLE nm_out RESULT_VARIABLE nm_result)
  if(NOT nm_result EQUAL 0)
    message(FATAL_ERROR "nm failed on ${exe}")
  endif()
  string(REGEX MATCHALL " [A-Za-z] ${psnt_symbol}" exe_symbols "${nm_out}")
  list(TRANSFORM exe_symbols REPLACE "^ [A-Za-z] " "")
  list(APPEND kept ${exe_symbols})
  list(REMOVE_DUPLICATES kept)
endforeach()

set(unreached ${defined})
if(kept)
  list(REMOVE_ITEM unreached ${kept})
endif()
set(names "")
if(unreached)
  list(JOIN unreached "\n" mangled)
  file(WRITE "${BUILD}/unreached_symbols.mangled" "${mangled}\n")
  execute_process(COMMAND c++filt
                  INPUT_FILE "${BUILD}/unreached_symbols.mangled"
                  OUTPUT_VARIABLE demangled RESULT_VARIABLE filt_result)
  if(NOT filt_result EQUAL 0)
    message(FATAL_ERROR "c++filt failed")
  endif()
  string(REGEX MATCHALL "[^\n]+" names "${demangled}")
  # Constructor and destructor variants (C1/C2, D0/D1/D2) share one name.
  list(REMOVE_DUPLICATES names)
  list(SORT names)
endif()

# Allowlist: "<demangled-name prefix> | <reason>", one entry a line.
file(STRINGS "${ROOT}/tests/unreached_symbols.txt" lines)
set(problems "")
set(prefixes "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[ \t]*(#|$)")
    continue()
  endif()
  if(NOT line MATCHES "^([^|]*[^| ]) +\\| +([^ ].*)$")
    list(APPEND problems "  allowlist entry without a reason: ${line}")
    continue()
  endif()
  set(prefix "${CMAKE_MATCH_1}")
  list(APPEND prefixes "${prefix}")
  set(matched FALSE)
  foreach(name IN LISTS names)
    string(FIND "${name}" "${prefix}" at)
    if(at EQUAL 0)
      set(matched TRUE)
      break()
    endif()
  endforeach()
  if(NOT matched)
    list(APPEND problems "  ${prefix}: allowlisted but matches no \
unreached symbol (reached now, or gone), so drop the entry")
  endif()
endforeach()

set(allowed 0)
foreach(name IN LISTS names)
  set(listed FALSE)
  foreach(prefix IN LISTS prefixes)
    string(FIND "${name}" "${prefix}" at)
    if(at EQUAL 0)
      set(listed TRUE)
      break()
    endif()
  endforeach()
  if(listed)
    math(EXPR allowed "${allowed} + 1")
  else()
    list(APPEND problems "  ${name}: no program that ctest runs reaches it")
  endif()
endforeach()

list(LENGTH defined defined_count)
list(LENGTH names unreached_count)
list(LENGTH prefixes entry_count)
if(problems)
  list(JOIN problems "\n" report)
  message(FATAL_ERROR "unreached-symbol rule broken:\n${report}")
endif()
message(STATUS "unreached symbols: ${defined_count} psnt:: text symbols "
               "defined, ${unreached_count} unreached, all ${allowed} on the "
               "allowlist (${entry_count} entries)")
