#pragma once
// Per-test scratch paths.  gtest_discover_tests runs every TEST as its own
// ctest process, so under `ctest -j` two tests that share a fixed name
// under temp_directory_path() delete each other's files.  Naming the path
// after the running test keeps each test's files its own.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace phlogon::testutil {

/// temp_directory_path() / "<stem>_<Suite>.<Test><ext>" for the running test.
inline std::filesystem::path perTestTempPath(const std::string& stem,
                                             const std::string& ext = "") {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = stem + "_" + info->test_suite_name() + "." + info->name() + ext;
    for (char& c : name)
        if (c == '/') c = '_';  // parameterized suite names
    return std::filesystem::temp_directory_path() / name;
}

}  // namespace phlogon::testutil
