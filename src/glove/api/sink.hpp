// DatasetSink: the push side of the Engine's streaming run boundary.
//
// Strategies (or the Engine's collect-then-run fallback) announce the
// output dataset's name once via begin(), then push finalized k-anonymous
// groups in output order; finish() flushes.  MemorySink collects groups
// back into a dataset — the legacy dataset-out Engine overload reads it —
// and CsvFileSink appends each group to a fingerprint-dataset CSV as it
// arrives, so file-to-file runs never hold the output in memory.
//
// Failure caveat: a sink may have consumed groups when a run fails (the
// Engine returns a typed error and the legacy overload discards its
// MemorySink, but a file sink's partial output stays on disk — callers
// should treat the file as invalid unless the run succeeded).

#ifndef GLOVE_API_SINK_HPP
#define GLOVE_API_SINK_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "glove/cdr/binio.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/cdr/io.hpp"
#include "glove/obs/metrics.hpp"

namespace glove::api {

class DatasetSink {
 public:
  virtual ~DatasetSink() = default;

  /// Stable identifier of the sink's transport ("memory", "csv-file"),
  /// recorded in the run report.
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  /// Announces the output dataset's name.  Called once, before the first
  /// group.
  virtual void begin(const std::string& dataset_name) { (void)dataset_name; }

  /// Accepts the next finalized group (counts, then forwards to the
  /// implementation).
  void write(cdr::Fingerprint group) {
    static const obs::Counter c_groups = obs::counter("sink.groups_written");
    static const obs::Counter c_samples =
        obs::counter("sink.samples_written");
    c_groups.add();
    c_samples.add(group.size());
    do_write(std::move(group));
    ++groups_written_;
  }

  /// Completes the output (flush, final validity check).  Called once,
  /// after the last group.
  virtual void finish() {}

  [[nodiscard]] std::uint64_t groups_written() const noexcept {
    return groups_written_;
  }

 protected:
  virtual void do_write(cdr::Fingerprint group) = 0;

 private:
  std::uint64_t groups_written_ = 0;
};

/// Collects groups into an in-memory dataset, named by begin().
class MemorySink final : public DatasetSink {
 public:
  [[nodiscard]] std::string_view kind() const noexcept override {
    return "memory";
  }
  void begin(const std::string& dataset_name) override {
    name_ = dataset_name;
  }

  /// Hands the collected dataset out (call once, after the run).
  [[nodiscard]] cdr::FingerprintDataset take_dataset() && {
    return cdr::FingerprintDataset{std::move(groups_), std::move(name_)};
  }

 protected:
  void do_write(cdr::Fingerprint group) override {
    groups_.push_back(std::move(group));
  }

 private:
  std::vector<cdr::Fingerprint> groups_;
  std::string name_;
};

/// Appends groups to a fingerprint-dataset CSV incrementally, producing
/// byte-identical files to cdr::write_dataset_file on the same groups.
/// Throws std::runtime_error (with the path) when the file cannot be
/// opened or a write fails, and util::DatasetError (with the path) when
/// the dataset name holds a line break.
class CsvFileSink final : public DatasetSink {
 public:
  explicit CsvFileSink(std::string path);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "csv-file";
  }
  /// Writes and flushes the header, so an unwritable target (read-only
  /// file, full disk) fails at run start, not at the first group.
  void begin(const std::string& dataset_name) override {
    writer_.begin(dataset_name);
  }
  void finish() override;

 protected:
  void do_write(cdr::Fingerprint group) override;

 private:
  std::string path_;
  std::ofstream out_;
  cdr::DatasetStreamWriter writer_;
};

/// Appends groups to a glovebin file (cdr/binio.hpp) incrementally,
/// producing byte-identical files to cdr::write_dataset_glovebin_file on
/// the same groups.  Throws std::runtime_error (with the path) when the
/// file cannot be opened or a write fails — begin() already flushes the
/// header, so an unwritable target fails at run start — and
/// util::DatasetError (with the path) when the dataset name holds a line
/// break.
class GlovebinSink final : public DatasetSink {
 public:
  explicit GlovebinSink(std::string path) : writer_{std::move(path)} {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "glovebin-file";
  }
  void begin(const std::string& dataset_name) override {
    writer_.begin(dataset_name);
  }
  void finish() override { writer_.finish(); }

 protected:
  void do_write(cdr::Fingerprint group) override { writer_.write(group); }

 private:
  cdr::GlovebinWriter writer_;
};

/// Opens `path` as the matching file sink.  `format` selects "csv" or
/// "glovebin" explicitly; empty picks by extension (".glovebin" →
/// GlovebinSink, anything else → CsvFileSink).  Throws
/// std::invalid_argument on an unknown format name.
[[nodiscard]] std::unique_ptr<DatasetSink> make_dataset_sink(
    const std::string& path, std::string_view format = {});

}  // namespace glove::api

#endif  // GLOVE_API_SINK_HPP
