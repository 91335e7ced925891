#include "partition/factor_assign.h"

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
  // The part tensors share the delta's dims, so its checked entries are
  // copied unchecked.
  for (size_t e = 0; e < nnz; ++e) {
    data.part_tensors[part_of(e)].AppendEntry(tensor, e);
  }

  // Access sets, one part at a time: each of part q's entries sets its
  // row's bit in factor k's bitmap, and reading the set bits back word by
  // word lists the distinct rows in ascending order, with no sort, and
  // clears the bitmap for the next part.
  data.needed_rows.assign(parts, std::vector<std::vector<uint64_t>>(order));
  std::vector<std::vector<uint64_t>> seen(order);
  for (size_t k = 0; k < order; ++k) {
    if (k != mode) seen[k].assign((tensor.dim(k) + 63) / 64, 0);
  }
  for (uint32_t q = 0; q < parts; ++q) {
    const SparseTensor& part = data.part_tensors[q];
    const uint64_t* part_indices = part.IndexData();
    for (size_t e = 0; e < part.nnz(); ++e) {
      for (size_t k = 0; k < order; ++k) {
        if (k == mode) continue;
        const uint64_t row = part_indices[e * order + k];
        seen[k][row >> 6] |= uint64_t{1} << (row & 63);
      }
    }
    for (size_t k = 0; k < order; ++k) {
      std::vector<uint64_t>& rows = data.needed_rows[q][k];
      for (size_t w = 0; w < seen[k].size(); ++w) {
        for (uint64_t bits = seen[k][w]; bits != 0; bits &= bits - 1) {
          rows.push_back(w * 64 +
                         static_cast<uint64_t>(__builtin_ctzll(bits)));
        }
        seen[k][w] = 0;
      }
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
