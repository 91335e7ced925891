#include "tensor/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/serialization.h"

namespace dismastd {
namespace {

constexpr uint32_t kKruskalMagic = 0x4B52534B;  // "KRSK"
constexpr uint32_t kCheckpointMagic = 0x44434B50;  // "DCKP"
constexpr uint32_t kVersion = 1;

void AppendMatrix(const Matrix& m, ByteWriter* writer) {
  writer->WriteU64(m.rows());
  writer->WriteU64(m.cols());
  writer->WriteDoubleSpan(m.data(), m.size());
}

Result<Matrix> ParseMatrix(ByteReader* reader) {
  uint64_t rows = 0, cols = 0;
  DISMASTD_RETURN_IF_ERROR(reader->ReadU64(&rows));
  DISMASTD_RETURN_IF_ERROR(reader->ReadU64(&cols));
  std::vector<double> data;
  DISMASTD_RETURN_IF_ERROR(reader->ReadDoubleVec(&data));
  // rows * cols == data.size(), checked by division: a corrupt shape can
  // wrap the product onto the payload size.
  const bool shape_matches = cols == 0 ? data.empty()
                                        : data.size() % cols == 0 &&
                                              data.size() / cols == rows;
  if (!shape_matches) {
    return Status::IoError("factor payload size mismatch");
  }
  Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  if (!data.empty()) {
    std::memcpy(m.data(), data.data(), data.size() * sizeof(double));
  }
  return m;
}

void AppendKruskal(const KruskalTensor& factors, ByteWriter* writer) {
  writer->WriteU32(kKruskalMagic);
  writer->WriteU32(kVersion);
  writer->WriteU64(factors.order());
  writer->WriteU64(factors.rank());
  for (size_t n = 0; n < factors.order(); ++n) {
    AppendMatrix(factors.factor(n), writer);
  }
}

Result<KruskalTensor> ParseKruskal(ByteReader* reader) {
  uint32_t magic = 0, version = 0;
  DISMASTD_RETURN_IF_ERROR(reader->ReadU32(&magic));
  DISMASTD_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (magic != kKruskalMagic) return Status::IoError("bad Kruskal magic");
  if (version != kVersion) return Status::IoError("unsupported version");
  uint64_t order = 0, rank = 0;
  DISMASTD_RETURN_IF_ERROR(reader->ReadU64(&order));
  DISMASTD_RETURN_IF_ERROR(reader->ReadU64(&rank));
  if (order == 0 || order > 16) return Status::IoError("bad order");
  std::vector<Matrix> factors;
  factors.reserve(order);
  for (uint64_t n = 0; n < order; ++n) {
    Result<Matrix> factor = ParseMatrix(reader);
    if (!factor.ok()) return factor.status();
    if (factor.value().cols() != rank) {
      return Status::IoError("factor rank mismatch");
    }
    factors.push_back(std::move(factor).value());
  }
  return KruskalTensor(std::move(factors));
}

Status WriteBytesToStream(const ByteWriter& writer, std::ostream& os) {
  const auto& bytes = writer.bytes();
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) return Status::IoError("failed writing checkpoint bytes");
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadAllBytes(std::istream& is) {
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
  if (bytes.empty()) return Status::IoError("empty checkpoint stream");
  return bytes;
}

/// Publishes `writer`'s bytes at `path` atomically: write `<path>.tmp`,
/// fsync, rename. A crash mid-write can leave a stale tmp file but never a
/// torn file under the final name, so a reader always sees either the old
/// checkpoint or the complete new one.
Status AtomicWriteFile(const ByteWriter& writer, const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("cannot open for write: " + tmp);
  const auto& bytes = writer.bytes();
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("failed writing checkpoint bytes: " + tmp);
    }
    off += static_cast<size_t>(n);
  }
  // The data blocks must be durable before the rename publishes the name;
  // otherwise a crash could expose a torn file under the final path.
  const bool synced = ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    ::unlink(tmp.c_str());
    return Status::IoError("failed syncing checkpoint: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("failed publishing checkpoint: " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteKruskal(const KruskalTensor& factors, std::ostream& os) {
  ByteWriter writer;
  AppendKruskal(factors, &writer);
  return WriteBytesToStream(writer, os);
}

Status WriteKruskalFile(const KruskalTensor& factors,
                        const std::string& path) {
  ByteWriter writer;
  AppendKruskal(factors, &writer);
  return AtomicWriteFile(writer, path);
}

Result<KruskalTensor> ReadKruskal(std::istream& is) {
  Result<std::vector<uint8_t>> bytes = ReadAllBytes(is);
  if (!bytes.ok()) return bytes.status();
  ByteReader reader(bytes.value());
  return ParseKruskal(&reader);
}

Result<KruskalTensor> ReadKruskalFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open for read: " + path);
  return ReadKruskal(is);
}

Status WriteStreamCheckpointFile(const StreamCheckpoint& checkpoint,
                                 const std::string& path) {
  if (checkpoint.dims.size() != checkpoint.factors.order()) {
    return Status::InvalidArgument("checkpoint dims/order mismatch");
  }
  ByteWriter writer;
  writer.WriteU32(kCheckpointMagic);
  writer.WriteU32(kVersion);
  writer.WriteU64(checkpoint.step);
  // Element-wise rather than WriteU64Span: GCC 12's -O3 stringop-overflow
  // checker false-positives on the span insert here.
  writer.WriteU64(checkpoint.dims.size());
  for (uint64_t d : checkpoint.dims) writer.WriteU64(d);
  AppendKruskal(checkpoint.factors, &writer);
  return AtomicWriteFile(writer, path);
}

namespace {

/// Parses the checkpoint payload; errors carry no path (the file-level
/// wrapper adds it once, so every failure names the offending file).
Result<StreamCheckpoint> ParseStreamCheckpoint(ByteReader* reader) {
  uint32_t magic = 0, version = 0;
  DISMASTD_RETURN_IF_ERROR(reader->ReadU32(&magic));
  DISMASTD_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (magic != kCheckpointMagic) {
    return Status::IoError("bad checkpoint magic");
  }
  if (version != kVersion) {
    return Status::IoError("unsupported checkpoint format version " +
                           std::to_string(version));
  }
  StreamCheckpoint checkpoint;
  checkpoint.format_version = version;
  DISMASTD_RETURN_IF_ERROR(reader->ReadU64(&checkpoint.step));
  uint64_t dim_count = 0;
  DISMASTD_RETURN_IF_ERROR(reader->ReadU64(&dim_count));
  if (dim_count == 0 || dim_count > 16) {
    return Status::IoError("bad checkpoint dim count " +
                           std::to_string(dim_count));
  }
  checkpoint.dims.resize(dim_count);
  for (auto& d : checkpoint.dims) {
    DISMASTD_RETURN_IF_ERROR(reader->ReadU64(&d));
  }
  Result<KruskalTensor> factors = ParseKruskal(reader);
  if (!factors.ok()) return factors.status();
  checkpoint.factors = std::move(factors).value();
  if (checkpoint.dims.size() != checkpoint.factors.order()) {
    return Status::IoError("checkpoint dims/order mismatch");
  }
  for (size_t n = 0; n < checkpoint.dims.size(); ++n) {
    if (checkpoint.factors.factor(n).rows() != checkpoint.dims[n]) {
      return Status::IoError(
          "checkpoint dims/factor rows mismatch in mode " +
          std::to_string(n) + " (dim " +
          std::to_string(checkpoint.dims[n]) + ", factor rows " +
          std::to_string(checkpoint.factors.factor(n).rows()) + ")");
    }
  }
  return checkpoint;
}

}  // namespace

Result<StreamCheckpoint> ReadStreamCheckpointFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open for read: " + path);
  Result<std::vector<uint8_t>> bytes = ReadAllBytes(is);
  if (!bytes.ok()) return bytes.status();
  ByteReader reader(bytes.value());
  Result<StreamCheckpoint> checkpoint = ParseStreamCheckpoint(&reader);
  if (!checkpoint.ok()) {
    return Status(checkpoint.status().code(),
                  path + ": " + checkpoint.status().message());
  }
  return checkpoint;
}

Result<CheckpointFileKind> SniffCheckpointFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open for read: " + path);
  uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (is.gcount() != sizeof(magic)) {
    return CheckpointFileKind::kNotACheckpoint;
  }
  if (magic == kKruskalMagic) return CheckpointFileKind::kKruskalFactors;
  if (magic == kCheckpointMagic) {
    return CheckpointFileKind::kStreamCheckpoint;
  }
  return CheckpointFileKind::kNotACheckpoint;
}

}  // namespace dismastd
