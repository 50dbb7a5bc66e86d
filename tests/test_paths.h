/**
 * @file
 * Per-test scratch paths. ctest runs each test as its own process and,
 * under `ctest -j`, several at once: a fixed name under
 * testing::TempDir() would be shared by concurrent tests, and one
 * test's cleanup would delete another's files mid-run.
 */

#ifndef TCSIM_TESTS_TEST_PATHS_H
#define TCSIM_TESTS_TEST_PATHS_H

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace tcsim::test
{

/**
 * @return a path under testing::TempDir() that no other test or
 * process uses: "tcsim_<suite>.<test>.<pid>_<tag>", with the '/' of
 * parameterized names replaced by '_'. Only valid while a test runs
 * (fixture SetUp included); @p tag tells apart several paths of one
 * test.
 */
inline std::string
scratchPath(const std::string &tag)
{
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("tcsim_") + info->test_suite_name() +
                       "." + info->name() + "." +
                       std::to_string(::getpid()) + "_" + tag;
    for (char &c : name) {
        if (c == '/')
            c = '_';
    }
    return (std::filesystem::path(testing::TempDir()) / name).string();
}

} // namespace tcsim::test

#endif // TCSIM_TESTS_TEST_PATHS_H
