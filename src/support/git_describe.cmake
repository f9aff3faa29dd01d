# Writes `git describe --always --dirty` of SOURCE_DIR into OUT as the
# LEAK_GIT_DESCRIBE string literal that support/version.cpp includes, or
# "unknown" when git is missing or SOURCE_DIR is not a checkout.  OUT is
# rewritten only when the value changes, so a build whose tree did not
# move recompiles nothing.  src/CMakeLists.txt runs it on every build:
#
#   cmake -DGIT_EXECUTABLE=... -DSOURCE_DIR=... -DOUT=... -P git_describe.cmake
set(describe "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" describe --always --dirty
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(rc EQUAL 0 AND NOT out STREQUAL "")
    set(describe "${out}")
  endif()
endif()
set(text "// Generated by src/support/git_describe.cmake at build time.\n#define LEAK_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
