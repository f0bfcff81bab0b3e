// The error a bad dataset raises: thrown by the code that consumes the
// data, and mapped by the glove::api::Engine to a typed error.

#ifndef GLOVE_UTIL_DATASET_ERROR_HPP
#define GLOVE_UTIL_DATASET_ERROR_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

namespace glove::util {

/// Thrown by the code that consumes a dataset when the *data* (not the
/// configuration) is unusable: a malformed record, too few fingerprints.
/// The glove::api::Engine maps it to ErrorCode::kInvalidDataset (plain
/// std::invalid_argument stays kInvalidConfig).
class DatasetError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Throws DatasetError when a dataset of `fingerprints` is smaller than k.
inline void check_dataset_size(std::uint64_t fingerprints, std::uint64_t k) {
  if (fingerprints < k) {
    throw DatasetError{"dataset holds " + std::to_string(fingerprints) +
                       " fingerprints, fewer than the target anonymity level " +
                       std::to_string(k)};
  }
}

}  // namespace glove::util

#endif  // GLOVE_UTIL_DATASET_ERROR_HPP
