#include "common/serialization.h"

namespace dismastd {

Status ByteReader::ReadString(std::string* out) {
  uint64_t len = 0;
  DISMASTD_RETURN_IF_ERROR(ReadU64(&len));
  // Against remaining(): a corrupt length near 2^64 would wrap pos_ + len.
  if (len > remaining()) {
    return Status::OutOfRange("ByteReader: string length exceeds buffer");
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<size_t>(len));
  pos_ += len;
  return Status::OK();
}

Status ByteReader::ReadDoubleVec(std::vector<double>* out) {
  uint64_t count = 0;
  DISMASTD_RETURN_IF_ERROR(ReadU64(&count));
  if (count > remaining() / sizeof(double)) {
    return Status::OutOfRange("ByteReader: double span exceeds buffer");
  }
  out->resize(count);
  if (count > 0) {
    std::memcpy(out->data(), data_ + pos_, count * sizeof(double));
  }
  pos_ += count * sizeof(double);
  return Status::OK();
}

Status ByteReader::ReadU64Vec(std::vector<uint64_t>* out) {
  uint64_t count = 0;
  DISMASTD_RETURN_IF_ERROR(ReadU64(&count));
  if (count > remaining() / sizeof(uint64_t)) {
    return Status::OutOfRange("ByteReader: u64 span exceeds buffer");
  }
  out->resize(count);
  if (count > 0) {
    std::memcpy(out->data(), data_ + pos_, count * sizeof(uint64_t));
  }
  pos_ += count * sizeof(uint64_t);
  return Status::OK();
}

}  // namespace dismastd
