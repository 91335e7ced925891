#include "partition/factor_assign.h"

#include <algorithm>

namespace dismastd {

ModePartitionData BuildModePartitionData(
    const SparseTensor& tensor, const TensorPartitioning& partitioning,
    size_t mode) {
  const size_t order = tensor.order();
  DISMASTD_CHECK(partitioning.order() == order);
  DISMASTD_CHECK(mode < order);
  const ModePartition& mode_partition = partitioning.modes[mode];
  const uint32_t parts = mode_partition.num_parts;
  const uint64_t* indices = tensor.IndexData();
  const size_t nnz = tensor.nnz();

  const auto part_of = [&](size_t e) {
    return mode_partition.slice_to_part[indices[e * order + mode]];
  };

  // Count each part's entries, so every part's storage is reserved exactly
  // before the entries are appended in order.
  std::vector<size_t> part_nnz(parts, 0);
  for (size_t e = 0; e < nnz; ++e) ++part_nnz[part_of(e)];
  ModePartitionData data;
  data.mode = mode;
  data.part_tensors.assign(parts, SparseTensor(tensor.dims()));
  for (uint32_t q = 0; q < parts; ++q) {
    data.part_tensors[q].Reserve(part_nnz[q]);
  }
  for (size_t e = 0; e < nnz; ++e) {
    data.part_tensors[part_of(e)].AddRaw(indices + e * order, tensor.Value(e));
  }

  // Access sets, one part at a time: a factor row enters part q's set the
  // first time one of q's entries touches it (stamp[k][row] == q + 1), so
  // only the distinct rows are kept and sorted.
  data.needed_rows.assign(parts, std::vector<std::vector<uint64_t>>(order));
  std::vector<std::vector<uint32_t>> stamp(order);
  for (size_t k = 0; k < order; ++k) {
    if (k != mode) stamp[k].assign(static_cast<size_t>(tensor.dim(k)), 0);
  }
  for (uint32_t q = 0; q < parts; ++q) {
    const SparseTensor& part = data.part_tensors[q];
    const uint64_t* part_indices = part.IndexData();
    for (size_t e = 0; e < part.nnz(); ++e) {
      for (size_t k = 0; k < order; ++k) {
        if (k == mode) continue;
        const uint64_t row = part_indices[e * order + k];
        uint32_t& seen = stamp[k][static_cast<size_t>(row)];
        if (seen == q + 1) continue;
        seen = q + 1;
        data.needed_rows[q][k].push_back(row);
      }
    }
    for (std::vector<uint64_t>& rows : data.needed_rows[q]) {
      std::sort(rows.begin(), rows.end());
    }
  }
  return data;
}

uint64_t CountRemoteRows(const std::vector<uint64_t>& rows,
                         const ModePartition& factor_partition,
                         uint32_t local_worker, uint32_t num_workers) {
  DISMASTD_CHECK(num_workers >= 1);
  uint64_t remote = 0;
  for (uint64_t row : rows) {
    DISMASTD_CHECK(row < factor_partition.slice_to_part.size());
    const uint32_t owner_part = factor_partition.slice_to_part[row];
    const uint32_t owner_worker = owner_part % num_workers;
    if (owner_worker != local_worker) ++remote;
  }
  return remote;
}

uint64_t RowTransferBytes(uint64_t row_count, size_t rank) {
  return row_count * (sizeof(uint64_t) + rank * sizeof(double));
}

}  // namespace dismastd
