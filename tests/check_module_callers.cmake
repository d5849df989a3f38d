# Every src/ header must be reached by code that runs: at least one file in
# src/, examples/ or bench/ other than the module's own .cpp has to include
# it. A module that only its tests include is dead library code.
#
#   cmake -DROOT=<repository root> -P tests/check_module_callers.cmake
#
# An exception names a module whose next caller an open ROADMAP item already
# plans; it must still have no real includer, so a stale entry fails too.
if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo> -P check_module_callers.cmake")
endif()

set(exceptions "core/fault_diagnosis.h")
set(reason_core/fault_diagnosis.h "ROADMAP item 7")

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.h")
file(GLOB_RECURSE includers RELATIVE "${ROOT}"
     "${ROOT}/src/*.h" "${ROOT}/src/*.cpp"
     "${ROOT}/examples/*.h" "${ROOT}/examples/*.cpp"
     "${ROOT}/bench/*.h" "${ROOT}/bench/*.cpp")

set(used "")
foreach(file IN LISTS includers)
  file(STRINGS "${ROOT}/${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]+\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[^\"]*\"([^\"]+)\".*$" "\\1" header "${line}")
    string(REGEX REPLACE "\\.h$" ".cpp" own_cpp "src/${header}")
    if(NOT file STREQUAL own_cpp)
      list(APPEND used "${header}")
    endif()
  endforeach()
endforeach()

set(problems "")
foreach(header IN LISTS headers)
  list(FIND used "${header}" used_at)
  list(FIND exceptions "${header}" excepted_at)
  if(used_at EQUAL -1 AND excepted_at EQUAL -1)
    list(APPEND problems "  ${header}: no includer in src/, examples/ or bench/ besides its own .cpp")
  elseif(NOT used_at EQUAL -1 AND NOT excepted_at EQUAL -1)
    list(APPEND problems
         "  ${header}: has an includer now, so drop its exception (${reason_${header}})")
  endif()
endforeach()
foreach(header IN LISTS exceptions)
  if(NOT EXISTS "${ROOT}/src/${header}")
    list(APPEND problems "  ${header}: excepted but gone, so drop its exception")
  endif()
endforeach()

if(problems)
  list(JOIN problems "\n" report)
  message(FATAL_ERROR "module-caller rule broken:\n${report}")
endif()
list(LENGTH headers count)
message(STATUS "module callers: ${count} headers checked "
               "(excepted: ${exceptions})")
