# Project-include hook that adds the pipeline benchmark to the psnt build
# without touching the root CMakeLists.txt:
#
#   cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_psnt_INCLUDE=$PWD/bench/pipeline/hook.cmake
#
# CMake includes this file right after project(psnt), before the library
# targets exist, so the target definitions are deferred to the end of the
# root directory. add_subdirectory cannot be deferred, hence a plain include
# of targets.cmake. DEFER expands its arguments only when the call runs, by
# which time CMAKE_CURRENT_LIST_DIR names the root; EVAL CODE pins this
# file's directory into the deferred call now.
cmake_language(EVAL CODE "
  cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
                 CALL include [[${CMAKE_CURRENT_LIST_DIR}/targets.cmake]])
")
