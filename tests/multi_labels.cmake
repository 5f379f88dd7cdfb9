# Applies multi-label lists to gtest suites after test discovery.
#
# gtest_discover_tests(... PROPERTIES LABELS "a;b") silently drops every
# label after the first: the list re-expands unquoted inside the
# generated set_tests_properties() call, so only "a" binds as LABELS and
# the rest parse as a bogus property/value pair. No amount of semicolon
# escaping survives the module's cmake_parse_arguments round-trips
# (CMake issue #20128). Instead, each discovery pass publishes its test
# names in <target>_TESTS, and this file — appended to the directory's
# TEST_INCLUDE_FILES *after* the discovery includes — sets the full
# label list by name. Unbuilt targets leave their list variable unset,
# so the foreach bodies are safely empty.

foreach(_t IN LISTS shape_shard_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "chaos;concurrency;sketch")
endforeach()

foreach(_t IN LISTS overload_chaos_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "chaos;concurrency")
endforeach()

foreach(_t IN LISTS sketch_codec_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "sketch;chaos")
endforeach()

# The simulator fingerprints in sim_test assert their hashes at several
# pool widths; the concurrency label puts them in the TSan job.
foreach(_t IN LISTS sim_test_TESTS)
  if(_t MATCHES "^SuiteFingerprintTest\\.")
    set_tests_properties("${_t}" PROPERTIES LABELS "concurrency")
  endif()
endforeach()
