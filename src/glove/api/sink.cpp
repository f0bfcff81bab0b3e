#include "glove/api/sink.hpp"

#include <stdexcept>

#include "glove/obs/span.hpp"

namespace glove::api {

CsvFileSink::CsvFileSink(std::string path)
    : path_{std::move(path)}, out_{path_}, writer_{out_, path_} {
  if (!out_) throw std::runtime_error{"cannot open for writing: " + path_};
}

void CsvFileSink::do_write(cdr::Fingerprint group) {
  writer_.write(group);
  if (!out_) throw std::runtime_error{"failed writing: " + path_};
}

void CsvFileSink::finish() {
  GLOVE_SPAN("sink.csv.flush");
  out_.flush();
  if (!out_) throw std::runtime_error{"failed writing: " + path_};
}

std::unique_ptr<DatasetSink> make_dataset_sink(const std::string& path,
                                               std::string_view format) {
  if (format.empty()) {
    const std::string_view extension{".glovebin"};
    const bool glovebin =
        path.size() >= extension.size() &&
        std::string_view{path}.substr(path.size() - extension.size()) ==
            extension;
    format = glovebin ? "glovebin" : "csv";
  }
  if (format == "glovebin") return std::make_unique<GlovebinSink>(path);
  if (format == "csv") return std::make_unique<CsvFileSink>(path);
  throw std::invalid_argument{"unknown dataset sink format: " +
                              std::string{format}};
}

}  // namespace glove::api
