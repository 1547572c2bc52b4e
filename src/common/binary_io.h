// Minimal Status-based binary file IO used to persist indexes and
// preprocessed datasets. Little-endian, versioned via per-format magic
// numbers; not portable to big-endian machines (like most vector-store
// formats, including Annoy's and FAISS's).
#ifndef SEESAW_COMMON_BINARY_IO_H_
#define SEESAW_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

namespace seesaw {

/// Sequential binary writer. Not thread-safe.
class BinaryWriter {
 public:
  /// Opens `path` for writing (truncates). Fails with IoError.
  static StatusOr<BinaryWriter> Open(const std::string& path);

  BinaryWriter(BinaryWriter&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  BinaryWriter& operator=(BinaryWriter&& other) noexcept;
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;
  ~BinaryWriter();

  Status WriteU32(uint32_t v);
  Status WriteU64(uint64_t v);
  Status WriteF32(float v);
  Status WriteF64(double v);
  Status WriteString(const std::string& s);

  /// Raw POD span writes (size must be communicated separately).
  Status WriteFloats(const float* data, size_t count);

  /// Flushes and closes; returns any deferred write error. Subsequent writes
  /// fail. Also called by the destructor (which swallows the status).
  Status Close();

 private:
  explicit BinaryWriter(std::FILE* file) : file_(file) {}
  Status WriteRaw(const void* data, size_t bytes);

  std::FILE* file_ = nullptr;
};

/// Sequential binary reader. Not thread-safe.
class BinaryReader {
 public:
  /// Opens `path` for reading. Fails with IoError / NotFound.
  static StatusOr<BinaryReader> Open(const std::string& path);

  BinaryReader(BinaryReader&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  BinaryReader& operator=(BinaryReader&& other) noexcept;
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;
  ~BinaryReader();

  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<float> ReadF32();
  StatusOr<double> ReadF64();
  StatusOr<std::string> ReadString();

  Status ReadFloats(float* data, size_t count);

 private:
  explicit BinaryReader(std::FILE* file) : file_(file) {}
  Status ReadRaw(void* data, size_t bytes);

  std::FILE* file_ = nullptr;
};

}  // namespace seesaw

#endif  // SEESAW_COMMON_BINARY_IO_H_
