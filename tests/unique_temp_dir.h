// Copyright 2026 The rvar Authors.
//
// A scratch directory private to the running test. ctest -j runs every
// test as its own process, concurrently with its siblings, so a fixed
// path under the temp directory lets one test's cleanup delete another's
// live files. The directory name carries the suite name, the test name
// and the process id; it is created empty on construction and removed,
// with everything under it, on destruction.
//
//   UniqueTempDir dir;                       // as a local or a fixture member
//   const std::string wal = dir.File("wal"); // <dir>/wal
//
// Construct it while a test runs (a test body or a fixture member), so
// the test's name is known.

#ifndef RVAR_TESTS_UNIQUE_TEMP_DIR_H_
#define RVAR_TESTS_UNIQUE_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace rvar {

class UniqueTempDir {
 public:
  UniqueTempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "rvar_";
    if (info != nullptr) {
      name += std::string(info->test_suite_name()) + "_" + info->name() + "_";
    }
    name += std::to_string(::getpid());
    // Parameterized suites and tests carry '/' in their names.
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }

  ~UniqueTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  UniqueTempDir(const UniqueTempDir&) = delete;
  UniqueTempDir& operator=(const UniqueTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

  /// The directory as a string, for APIs that take one.
  std::string str() const { return path_.string(); }

  /// Path of `name` inside the directory (not created).
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace rvar

#endif  // RVAR_TESTS_UNIQUE_TEMP_DIR_H_
