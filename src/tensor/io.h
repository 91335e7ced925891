#ifndef DISMASTD_TENSOR_IO_H_
#define DISMASTD_TENSOR_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "tensor/coo_tensor.h"

namespace dismastd {

/// Writes a sparse tensor in the text format used by FROSTT / SPLATT-style
/// tools: first line "order d_1 d_2 ... d_N", then one line per non-zero
/// "i_1 i_2 ... i_N value" with zero-based indices.
Status WriteTensorText(const SparseTensor& tensor, std::ostream& os);
Status WriteTensorTextFile(const SparseTensor& tensor,
                           const std::string& path);

/// Reads the format produced by WriteTensorText. Validates dims and indices.
Result<SparseTensor> ReadTensorText(std::istream& is);
Result<SparseTensor> ReadTensorTextFile(const std::string& path);

}  // namespace dismastd

#endif  // DISMASTD_TENSOR_IO_H_
