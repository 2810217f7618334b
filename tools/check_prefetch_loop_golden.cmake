# Record a quick cell with the in-the-loop prefetcher, analyze the
# thinned trace, and byte-compare the record's stderr summary (issued,
# coverage, accuracy, covered misses removed) followed by the analyze
# report against a committed golden. Both commands run inside WORKDIR
# on a relative trace name, so the text carries no paths.
#
# Usage:
#   cmake -DTRACE_TOOL=<tstream-trace binary> -DGOLDEN=<golden.txt>
#         -DWORKDIR=<dir> [-DARGS=a|b|c] -P check_prefetch_loop_golden.cmake
#
# ARGS (|-separated) are the extra record options; the trace is
# written to WORKDIR/prefetch_loop_golden.tst.
foreach(var TRACE_TOOL GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
      "check_prefetch_loop_golden.cmake needs -DTRACE_TOOL -DGOLDEN "
      "-DWORKDIR")
  endif()
endforeach()
string(REPLACE "|" ";" ARGS "${ARGS}")
set(trace prefetch_loop_golden.tst)
unset(ENV{TSTREAM_TRACE_CACHE})
execute_process(
  COMMAND ${TRACE_TOOL} record ${ARGS} -o ${trace}
  WORKING_DIRECTORY ${WORKDIR}
  OUTPUT_QUIET
  ERROR_VARIABLE record_err
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "record failed with status ${rv}:\n${record_err}")
endif()
execute_process(
  COMMAND ${TRACE_TOOL} analyze ${trace}
  WORKING_DIRECTORY ${WORKDIR}
  OUTPUT_VARIABLE analyze_out
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "analyze failed with status ${rv}")
endif()
set(actual "${record_err}${analyze_out}")
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  set(out ${WORKDIR}/prefetch_loop_golden_out.txt)
  file(WRITE ${out} "${actual}")
  message(FATAL_ERROR "${out} differs from the golden ${GOLDEN}")
endif()
