#ifndef DISMASTD_PARTITION_FACTOR_ASSIGN_H_
#define DISMASTD_PARTITION_FACTOR_ASSIGN_H_

#include <cstdint>
#include <vector>

#include "partition/partition.h"
#include "tensor/coo_tensor.h"

namespace dismastd {

/// Per-partition data for updating one mode (§IV-A3, Fig. 4): the non-zeros
/// whose mode-`mode` index falls in the partition, plus — for every other
/// mode — the distinct factor rows those non-zeros touch during MTTKRP.
struct ModePartitionData {
  size_t mode = 0;
  /// part_tensors[q] holds partition q's non-zeros (full tensor dims, so
  /// global indices remain valid).
  std::vector<SparseTensor> part_tensors;
  /// needed_rows[q][k] = the distinct row indices of factor k accessed by
  /// partition q's non-zeros, ascending (empty vector for k == mode).
  std::vector<std::vector<std::vector<uint64_t>>> needed_rows;
};

/// Splits `tensor` by the mode-`mode` partition and computes the factor-row
/// access sets that drive communication accounting.
ModePartitionData BuildModePartitionData(const SparseTensor& tensor,
                                         const TensorPartitioning& partitioning,
                                         size_t mode);

/// Counts how many of `rows` (indices into factor `factor_mode`) are owned
/// by a different worker than `local_worker`, where row ownership follows
/// the factor mode's partition and partitions map to workers round-robin
/// (part q -> worker q % num_workers).
uint64_t CountRemoteRows(const std::vector<uint64_t>& rows,
                         const ModePartition& factor_partition,
                         uint32_t local_worker, uint32_t num_workers);

/// Serialized size of shipping `row_count` factor rows of rank R:
/// one u64 index plus R doubles per row.
uint64_t RowTransferBytes(uint64_t row_count, size_t rank);

}  // namespace dismastd

#endif  // DISMASTD_PARTITION_FACTOR_ASSIGN_H_
