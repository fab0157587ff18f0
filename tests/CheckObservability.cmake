# Smoke check of eoec's observability surface, run as a ctest script:
#
#   cmake -DEOEC=<eoec binary> -DEXAMPLE=<figure1.siml> -DOUT_DIR=<dir>
#         -P CheckObservability.cmake
#
# Drives `eoec locate --stats=json --trace-out=FILE` on the example
# program and asserts the documented shape: the last stdout line is
# schema-tagged stats JSON covering every pipeline layer, and the trace
# file is a Chrome trace_event document containing the phase spans.
# (Structural JSON validity of both emitters is covered by the unit
# tests; this guards the CLI wiring end to end.)

foreach(Var EOEC EXAMPLE OUT_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=...")
  endif()
endforeach()

set(TraceFile "${OUT_DIR}/eoec_smoke_trace.json")
file(REMOVE "${TraceFile}")

execute_process(
  COMMAND "${EOEC}" locate "${EXAMPLE}"
          --expected 8,19387 --root-line 11
          --stats=json "--trace-out=${TraceFile}"
  OUTPUT_VARIABLE Stdout
  ERROR_VARIABLE Stderr
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "eoec locate failed (rc=${Rc}):\n${Stdout}\n${Stderr}")
endif()

# The stats JSON is the final stdout line, tagged with its schema.
string(STRIP "${Stdout}" Stdout)
string(REGEX REPLACE ".*\n" "" LastLine "${Stdout}")
if(NOT LastLine MATCHES "^\\{\"schema\":\"eoe-stats-v1\"")
  message(FATAL_ERROR "last stdout line is not eoe-stats-v1 JSON:\n${LastLine}")
endif()
foreach(Key
    "\"interp\"" "\"align\"" "\"verify\"" "\"locate\"" "\"slicing\""
    "\"verifications\"" "\"reexecutions\"" "\"ckpt.hits\"" "\"ckpt.misses\""
    "\"splice_time\"" "\"spliced_steps\"" "\"trace_bytes\""
    "\"ckpt.stored\"" "\"ckpt.capture_time\""
    "\"prune_time\"" "\"build_time\"" "\"update_time\"" "\"prune_rounds\""
    "\"counters\"" "\"timers\""
    "\"histograms\"")
  if(NOT LastLine MATCHES "${Key}")
    message(FATAL_ERROR "stats JSON lacks ${Key}:\n${LastLine}")
  endif()
endforeach()

if(NOT EXISTS "${TraceFile}")
  message(FATAL_ERROR "trace file was not written: ${TraceFile}")
endif()
file(READ "${TraceFile}" Trace)
if(NOT Trace MATCHES "\"traceEvents\":\\[")
  message(FATAL_ERROR "not a Chrome trace document:\n${Trace}")
endif()
foreach(Span "interpret" "align" "verify" "locate"
    "static_analysis" "pd.build" "verify.init")
  if(NOT Trace MATCHES "\"name\":\"${Span}\"")
    message(FATAL_ERROR "trace lacks the ${Span} span:\n${Trace}")
  endif()
endforeach()

message(STATUS "observability smoke passed")
