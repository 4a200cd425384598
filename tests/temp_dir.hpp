// dnsctx — a unique temporary directory per test, removed when it goes
// out of scope.
//
// ctest runs every gtest case as its own process, in parallel under
// `ctest -j`, so two cases writing one fixed path under /tmp race each
// other. mkdtemp gives each TempDir a fresh name.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace dnsctx::testutil {

class TempDir {
 public:
  explicit TempDir(const std::string& tag = "dnsctx") {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (tag + "-XXXXXX")).string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error{"mkdtemp failed for " + pattern};
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace dnsctx::testutil
