// A scratch directory per test process, so that two test runs on one
// machine (say an ASan and a TSan suite side by side) never write or delete
// each other's files.

#ifndef SQLGRAPH_TESTS_TEMP_DIR_H_
#define SQLGRAPH_TESTS_TEMP_DIR_H_

#include <stdlib.h>  // mkdtemp (POSIX)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "gtest/gtest.h"

namespace sqlgraph {
namespace testutil {

/// The directory this process writes its test files under: made with
/// mkdtemp below ::testing::TempDir() on first use, and removed with
/// everything in it when the process exits.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern =
          std::string(::testing::TempDir()) + "/sqlgraph_test_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
      path = std::move(pattern);
    }
    ~Dir() {
      std::error_code ignored;  // best effort at exit
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside ProcessTempDir().
inline std::string TempPath(const std::string& name) {
  return ProcessTempDir() + "/" + name;
}

}  // namespace testutil
}  // namespace sqlgraph

#endif  // SQLGRAPH_TESTS_TEMP_DIR_H_
