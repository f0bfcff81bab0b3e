// RAII scratch directory for tests doing real file I/O, plus the dataset
// file readers built on it: tests read a dataset file the one way the
// program does, through api::open_dataset_source.

#ifndef GLOVE_TESTS_COMMON_TEMP_DIR_HPP
#define GLOVE_TESTS_COMMON_TEMP_DIR_HPP

#include <filesystem>
#include <string>
#include <string_view>

#include "glove/cdr/dataset.hpp"

namespace glove::test {

/// Creates a unique directory under the gtest temp root on construction and
/// removes it (recursively) on destruction, so suites never leak files or
/// collide when run in parallel under `ctest -j`.
class TempDir {
 public:
  TempDir();
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

  /// Absolute path of `name` inside the directory (the file need not exist).
  [[nodiscard]] std::string file(std::string_view name) const;

 private:
  std::filesystem::path path_;
};

/// Reads the dataset file at `path`, CSV or glovebin, as the program does:
/// api::collect(*api::open_dataset_source(path)).  Named by the file's
/// stored name; throws as the source does (std::runtime_error when the
/// file cannot be opened, util::DatasetError with path and line on a
/// malformed row).
[[nodiscard]] cdr::FingerprintDataset read_dataset(const std::string& path);

/// Writes dataset CSV `text` to a scratch file and reads it with
/// read_dataset.
[[nodiscard]] cdr::FingerprintDataset read_dataset_text(std::string_view text);

/// Writes `data` to `name` inside `dir` with write_dataset_file and reads it
/// back, returning the reloaded dataset.
[[nodiscard]] cdr::FingerprintDataset dataset_file_roundtrip(
    const TempDir& dir, const cdr::FingerprintDataset& data,
    std::string_view name = "roundtrip.csv");

}  // namespace glove::test

#endif  // GLOVE_TESTS_COMMON_TEMP_DIR_HPP
