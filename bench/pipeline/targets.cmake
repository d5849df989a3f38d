# Pipeline benchmark targets, included at the end of the root directory by
# hook.cmake (every psnt_* library target exists by then).
add_executable(bench_pipeline
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/client.cpp
  ${CMAKE_CURRENT_LIST_DIR}/replay.cpp
  ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp
)
# The host stamp records the build type the numbers came from.
target_compile_definitions(bench_pipeline PRIVATE
  PSNT_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_link_libraries(bench_pipeline PRIVATE
  psnt_util psnt_stats psnt_analog psnt_sim psnt_core psnt_scan psnt_calib
  psnt_fault psnt_serve psnt_net psnt_grid psnt_fleet Threads::Threads)

add_test(NAME pipeline_smoke COMMAND bench_pipeline --smoke)
set_tests_properties(pipeline_smoke PROPERTIES TIMEOUT 300)
