#include "tensor/io.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace dismastd {

Status WriteTensorText(const SparseTensor& tensor, std::ostream& os) {
  os << tensor.order();
  for (uint64_t d : tensor.dims()) os << ' ' << d;
  os << '\n';
  os.precision(17);
  for (size_t e = 0; e < tensor.nnz(); ++e) {
    const uint64_t* idx = tensor.IndexTuple(e);
    for (size_t m = 0; m < tensor.order(); ++m) {
      if (m > 0) os << ' ';
      os << idx[m];
    }
    os << ' ' << tensor.Value(e) << '\n';
  }
  if (!os) return Status::IoError("failed writing tensor text");
  return Status::OK();
}

Status WriteTensorTextFile(const SparseTensor& tensor,
                           const std::string& path) {
  std::ofstream os(path);
  if (!os) return Status::IoError("cannot open for write: " + path);
  return WriteTensorText(tensor, os);
}

Result<SparseTensor> ReadTensorText(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    return Status::IoError("empty tensor stream");
  }
  std::istringstream header(line);
  size_t order = 0;
  if (!(header >> order) || order == 0) {
    return Status::IoError("bad tensor header: " + line);
  }
  std::vector<uint64_t> dims(order);
  for (size_t m = 0; m < order; ++m) {
    if (!(header >> dims[m]) || dims[m] == 0) {
      return Status::IoError("bad dims in header: " + line);
    }
  }
  SparseTensor tensor(dims);
  std::vector<uint64_t> index(order);
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream ls{std::string(trimmed)};
    for (size_t m = 0; m < order; ++m) {
      if (!(ls >> index[m])) {
        return Status::IoError("bad index at line " + std::to_string(line_no));
      }
      if (index[m] >= dims[m]) {
        return Status::OutOfRange("index out of bounds at line " +
                                  std::to_string(line_no));
      }
    }
    double value = 0.0;
    if (!(ls >> value)) {
      return Status::IoError("bad value at line " + std::to_string(line_no));
    }
    tensor.Add(index, value);
  }
  return tensor;
}

Result<SparseTensor> ReadTensorTextFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IoError("cannot open for read: " + path);
  return ReadTensorText(is);
}

}  // namespace dismastd
