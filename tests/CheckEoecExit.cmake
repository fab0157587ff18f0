# Runs one eoec command on a one-output omission program and checks its
# exit code and output, as a ctest script:
#
#   cmake -DEOEC=<eoec binary> -DOUT_DIR=<dir> -DNAME=<test name>
#         -DCOMMAND=<slice|locate> "-DARGS=<flags>" -DRC=<exit code>
#         "-DEXPECT=<regex>" -P CheckEoecExit.cmake
#
# The program, written to OUT_DIR/NAME.siml, prints one value, 0; the
# fixed program prints 32. ARGS are split like a shell command line. The
# test passes when eoec exits with RC and its stdout and stderr together
# match EXPECT.

foreach(Var EOEC OUT_DIR NAME COMMAND ARGS RC EXPECT)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=...")
  endif()
endforeach()

set(Program "${OUT_DIR}/${NAME}.siml")
file(WRITE "${Program}"
  "fn main() {\nvar save = 0;\nvar flags = 0;\nif (save) {\n"
  "flags = flags + 32;\n}\nvar out = flags;\nprint(out);\n}\n")

separate_arguments(Args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${EOEC}" ${COMMAND} "${Program}" ${Args}
  OUTPUT_VARIABLE Stdout
  ERROR_VARIABLE Stderr
  RESULT_VARIABLE Rc)
set(Output "${Stdout}${Stderr}")
if(NOT Rc EQUAL RC)
  message(FATAL_ERROR "eoec exited ${Rc}, want ${RC}:\n${Output}")
endif()
if(NOT Output MATCHES "${EXPECT}")
  message(FATAL_ERROR "eoec output does not match '${EXPECT}':\n${Output}")
endif()
message(STATUS "eoec ${COMMAND} ${ARGS}: exit ${Rc} as expected")
