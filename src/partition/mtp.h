#ifndef DISMASTD_PARTITION_MTP_H_
#define DISMASTD_PARTITION_MTP_H_

#include <cstdint>
#include <vector>

#include "partition/partition.h"

namespace dismastd {

/// Max-min Fit Tensor Partitioning for one mode (Algorithm 3).
///
/// Sorts slices by nnz descending (ties broken by slice index for
/// determinism) and assigns each slice to the partition with the currently
/// smallest load (LPT scheduling), ties going to the partition with fewer
/// slices, then the lower id. Produces non-contiguous partitions with a
/// classic max-load guarantee of (4/3 - 1/3p) x optimum.
ModePartition MaxMinPartitionMode(const std::vector<uint64_t>& slice_nnz,
                                  uint32_t num_parts);

}  // namespace dismastd

#endif  // DISMASTD_PARTITION_MTP_H_
