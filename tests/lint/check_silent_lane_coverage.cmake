# xkb-silent-lane must know every rt::Platform report entry point.  Every
# runtime fact reaches the op trace, obs and the checker through
# Platform::transfer, Platform::launch_kernel or a Platform::report_*
# member; a new report_* that the check's list lacks would let a silent
# callback call it unseen.  This generates one call per entry point
# declared in the header, each on its own line inside an XKB_SILENT body,
# and requires exactly one finding per name.
#
# Invoked by ctest:
#   cmake -DXKB_LINT=<driver> -DPLATFORM_HPP=<header> -DOUT=<file> -P <this>

file(READ ${PLATFORM_HPP} header)
string(REGEX MATCHALL "[ \t]report_[a-z0-9_]+\\(" decls "${header}")
set(reports "")
foreach(d IN LISTS decls)
  string(REGEX REPLACE "[ \t(]" "" d "${d}")
  list(APPEND reports ${d})
endforeach()
list(REMOVE_DUPLICATES reports)
if(NOT reports)
  message(FATAL_ERROR "no report_* member found in ${PLATFORM_HPP}")
endif()
set(names transfer launch_kernel ${reports})

set(src "#define XKB_SILENT\nstruct Platform;\n")
string(APPEND src "XKB_SILENT void silent_callback(Platform* plat_) {\n")
foreach(n IN LISTS names)
  string(APPEND src "  plat_->${n}();\n")
endforeach()
string(APPEND src "}\n")
file(WRITE ${OUT} "${src}")

execute_process(
  COMMAND ${XKB_LINT} --quiet --check xkb-silent-lane ${OUT}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)

set(failed FALSE)
foreach(n IN LISTS names)
  string(REGEX MATCHALL "\\[xkb-silent-lane\\][^\n]*\\('${n}'\\)" hits
         "${out}")
  list(LENGTH hits got)
  if(NOT got EQUAL 1)
    message(SEND_ERROR "Platform::${n}: expected 1 xkb-silent-lane finding, "
                       "got ${got}; add it to check_silent's list in "
                       "tools/lint/xkb_lint.cpp")
    set(failed TRUE)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "xkb-silent-lane misses Platform entry points:\n${out}")
endif()
list(LENGTH names count)
message(STATUS "xkb-silent-lane covers all ${count} Platform entry points")
