#include "common/temp_dir.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <string>

#include "glove/api/source.hpp"
#include "glove/cdr/io.hpp"

namespace glove::test {

namespace {
std::filesystem::path unique_dir() {
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path root{::testing::TempDir()};
  // Process id + counter keeps concurrently running suites apart.
  while (true) {
    std::filesystem::path candidate =
        root / ("glove_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter.fetch_add(1)));
    if (std::filesystem::create_directories(candidate)) return candidate;
  }
}
}  // namespace

TempDir::TempDir() : path_{unique_dir()} {}

TempDir::~TempDir() {
  std::error_code ec;  // best effort: never throw from a destructor
  std::filesystem::remove_all(path_, ec);
}

std::string TempDir::file(std::string_view name) const {
  return (path_ / name).string();
}

cdr::FingerprintDataset read_dataset(const std::string& path) {
  return api::collect(*api::open_dataset_source(path));
}

cdr::FingerprintDataset read_dataset_text(std::string_view text) {
  const TempDir dir;
  const std::string path = dir.file("dataset.csv");
  std::ofstream{path, std::ios::binary} << text;
  return read_dataset(path);
}

cdr::FingerprintDataset dataset_file_roundtrip(
    const TempDir& dir, const cdr::FingerprintDataset& data,
    std::string_view name) {
  const std::string path = dir.file(name);
  cdr::write_dataset_file(path, data);
  return read_dataset(path);
}

}  // namespace glove::test
