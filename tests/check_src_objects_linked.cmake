# Dead-module check (run as a ctest:
#   cmake -DNM=<nm> -DLIBRARY=<libtitan.a> -DEXECUTABLES=<exe;exe;...>
#         -P this_file).
#
# Every member of the simulator library must be linked into at least one
# program that is not a test: a tool, a bench or an example.  A member
# counts as linked when one of its strong global definitions (nm types T,
# D, B, R) is defined in some executable; weak and inline definitions are
# ignored because any other member may supply them.  A member that fails
# holds code only the tests run: delete it, or give it a caller.
foreach(var NM LIBRARY EXECUTABLES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_src_objects_linked: pass -D${var}=...")
  endif()
endforeach()

# One newline-delimited string of every global symbol the executables
# define, so a lookup is a single literal string(FIND).
set(linked_symbols "\n")
foreach(executable ${EXECUTABLES})
  execute_process(COMMAND "${NM}" -g --defined-only --format=just-symbols
                          "${executable}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "check_src_objects_linked: ${NM} failed on ${executable}")
  endif()
  string(APPEND linked_symbols "${symbols}")
endforeach()

# nm lists an archive as "member:" headers, each followed by its symbols
# ("address type name").
execute_process(COMMAND "${NM}" -g --defined-only "${LIBRARY}"
                OUTPUT_VARIABLE archive_listing RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "check_src_objects_linked: ${NM} failed on ${LIBRARY}")
endif()
string(REPLACE "\n" ";" archive_lines "${archive_listing}")

set(members "")
set(unlinked "")
set(member "")
foreach(line IN LISTS archive_lines ITEMS "")
  if(line MATCHES "^(.+):$")
    set(member "${CMAKE_MATCH_1}")
    set(member_linked FALSE)
    list(APPEND members "${member}")
  elseif(line STREQUAL "")
    # A blank line (or the end of the listing) closes the current member.
    if(NOT member STREQUAL "" AND NOT member_linked)
      list(APPEND unlinked "${member}")
    endif()
    set(member "")
  elseif(NOT member_linked AND line MATCHES "^[0-9a-f]* [TDBR] (.+)$")
    string(FIND "${linked_symbols}" "\n${CMAKE_MATCH_1}\n" found)
    if(NOT found EQUAL -1)
      set(member_linked TRUE)
    endif()
  endif()
endforeach()

list(LENGTH members member_count)
if(member_count EQUAL 0)
  message(FATAL_ERROR "check_src_objects_linked: no members in ${LIBRARY}")
endif()
if(unlinked)
  list(SORT unlinked)
  list(JOIN unlinked "\n  " joined)
  message(FATAL_ERROR
          "Library members linked into no tool, bench or example:\n  ${joined}")
endif()
message(STATUS "check_src_objects_linked: all ${member_count} members linked")
