# Runs one bench `--smoke` twice, each in its own fresh working directory,
# and fails unless the two metrics sidecars are byte-identical: the virtual
# clock is a pure function of the seed, the workload and the pinned cost
# profile, so nothing in a sidecar may differ between processes.
#
#   cmake -DBENCH=<path to bench binary> -DWORK=<scratch dir> -P sidecar_repro.cmake
if(NOT BENCH OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DWORK=<dir> -P sidecar_repro.cmake")
endif()
get_filename_component(name "${BENCH}" NAME)

foreach(run a b)
  file(REMOVE_RECURSE "${WORK}/${run}")
  file(MAKE_DIRECTORY "${WORK}/${run}")
  execute_process(COMMAND "${BENCH}" --smoke
                  WORKING_DIRECTORY "${WORK}/${run}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --smoke (run ${run}) exited with ${rc}")
  endif()
endforeach()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK}/a/${name}.metrics.json" "${WORK}/b/${name}.metrics.json"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${name}: two --smoke runs wrote different ${name}.metrics.json "
                      "(see ${WORK}/a and ${WORK}/b)")
endif()
message(STATUS "${name}: sidecars of two runs are byte-identical")
