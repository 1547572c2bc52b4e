#include "common/binary_io.h"

namespace seesaw {

// ---------------------------------------------------------- BinaryWriter --

StatusOr<BinaryWriter> BinaryWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return BinaryWriter(f);
}

BinaryWriter& BinaryWriter::operator=(BinaryWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

BinaryWriter::~BinaryWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status BinaryWriter::WriteRaw(const void* data, size_t bytes) {
  if (file_ == nullptr) return Status::FailedPrecondition("writer closed");
  if (bytes == 0) return Status::OK();
  if (std::fwrite(data, 1, bytes, file_) != bytes) {
    return Status::IoError("short write");
  }
  return Status::OK();
}

Status BinaryWriter::WriteU32(uint32_t v) { return WriteRaw(&v, sizeof(v)); }
Status BinaryWriter::WriteU64(uint64_t v) { return WriteRaw(&v, sizeof(v)); }
Status BinaryWriter::WriteF32(float v) { return WriteRaw(&v, sizeof(v)); }
Status BinaryWriter::WriteF64(double v) { return WriteRaw(&v, sizeof(v)); }

Status BinaryWriter::WriteString(const std::string& s) {
  SEESAW_RETURN_IF_ERROR(WriteU64(s.size()));
  return WriteRaw(s.data(), s.size());
}

Status BinaryWriter::WriteFloats(const float* data, size_t count) {
  return WriteRaw(data, count * sizeof(float));
}

Status BinaryWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IoError("close failed");
  return Status::OK();
}

// ---------------------------------------------------------- BinaryReader --

StatusOr<BinaryReader> BinaryReader::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  return BinaryReader(f);
}

BinaryReader& BinaryReader::operator=(BinaryReader&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status BinaryReader::ReadRaw(void* data, size_t bytes) {
  if (file_ == nullptr) return Status::FailedPrecondition("reader closed");
  if (bytes == 0) return Status::OK();
  if (std::fread(data, 1, bytes, file_) != bytes) {
    return Status::IoError("short read (truncated or corrupt file)");
  }
  return Status::OK();
}

StatusOr<uint32_t> BinaryReader::ReadU32() {
  uint32_t v = 0;
  SEESAW_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

StatusOr<uint64_t> BinaryReader::ReadU64() {
  uint64_t v = 0;
  SEESAW_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

StatusOr<float> BinaryReader::ReadF32() {
  float v = 0;
  SEESAW_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

StatusOr<double> BinaryReader::ReadF64() {
  double v = 0;
  SEESAW_RETURN_IF_ERROR(ReadRaw(&v, sizeof(v)));
  return v;
}

StatusOr<std::string> BinaryReader::ReadString() {
  SEESAW_ASSIGN_OR_RETURN(uint64_t size, ReadU64());
  // 1 GiB guard against corrupt length prefixes.
  if (size > (1ull << 30)) return Status::IoError("string length implausible");
  std::string s(size, '\0');
  SEESAW_RETURN_IF_ERROR(ReadRaw(s.data(), size));
  return s;
}

Status BinaryReader::ReadFloats(float* data, size_t count) {
  return ReadRaw(data, count * sizeof(float));
}

}  // namespace seesaw
