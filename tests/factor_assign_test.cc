#include "partition/factor_assign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "partition/mtp.h"
#include "stream/generator.h"

namespace dismastd {
namespace {

SparseTensor MakeTensor() {
  SparseTensor t({6, 4, 4});
  Rng rng(9);
  for (int e = 0; e < 50; ++e) {
    t.Add({rng.NextBounded(6), rng.NextBounded(4), rng.NextBounded(4)},
          rng.NextDouble());
  }
  t.Coalesce();
  return t;
}

TEST(FactorAssignTest, PartTensorsPartitionTheNnz) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kMaxMin, t, 3);
  for (size_t mode = 0; mode < t.order(); ++mode) {
    const ModePartitionData data = BuildModePartitionData(t, tp, mode);
    ASSERT_EQ(data.part_tensors.size(), 3u);
    size_t total = 0;
    for (const SparseTensor& part : data.part_tensors) total += part.nnz();
    EXPECT_EQ(total, t.nnz());
    // Each partition's entries belong to slices mapped to that partition.
    for (uint32_t q = 0; q < 3; ++q) {
      const SparseTensor& part = data.part_tensors[q];
      for (size_t e = 0; e < part.nnz(); ++e) {
        EXPECT_EQ(tp.modes[mode].slice_to_part[part.Index(e, mode)], q);
      }
    }
  }
}

TEST(FactorAssignTest, PartNnzMatchesPartitionLoads) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kGreedy, t, 4);
  const ModePartitionData data = BuildModePartitionData(t, tp, 0);
  for (uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(data.part_tensors[q].nnz(), tp.modes[0].part_nnz[q]);
  }
}

TEST(FactorAssignTest, NeededRowsAreExactAccessSets) {
  const SparseTensor t = MakeTensor();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kMaxMin, t, 2);
  const size_t mode = 1;
  const ModePartitionData data = BuildModePartitionData(t, tp, mode);
  for (uint32_t q = 0; q < 2; ++q) {
    // Own mode has no access set.
    EXPECT_TRUE(data.needed_rows[q][mode].empty());
    for (size_t k = 0; k < t.order(); ++k) {
      if (k == mode) continue;
      const auto& rows = data.needed_rows[q][k];
      // Sorted and unique.
      for (size_t i = 1; i < rows.size(); ++i) {
        EXPECT_LT(rows[i - 1], rows[i]);
      }
      // Every non-zero's k-index is present.
      const SparseTensor& part = data.part_tensors[q];
      for (size_t e = 0; e < part.nnz(); ++e) {
        EXPECT_TRUE(std::binary_search(rows.begin(), rows.end(),
                                       part.Index(e, k)));
      }
    }
  }
}

TEST(FactorAssignTest, SplitMatchesPerEntryOracle) {
  // Repeated rows: 60 entries over a 7 x 5 x 3 box. Empty parts: mode 0's
  // slices map to parts {0, 2, 4} only, and part 5 of mode 2 gets none.
  SparseTensor t({7, 5, 3});
  Rng rng(17);
  for (int e = 0; e < 60; ++e) {
    t.Add({rng.NextBounded(7), rng.NextBounded(5), rng.NextBounded(3)},
          rng.NextGaussian());
  }
  TensorPartitioning tp;
  tp.modes.resize(3);
  tp.modes[0].num_parts = 6;
  tp.modes[0].slice_to_part = {4, 0, 2, 2, 0, 4, 4};
  tp.modes[1].num_parts = 6;
  tp.modes[1].slice_to_part = {1, 0, 3, 5, 2};
  tp.modes[2].num_parts = 6;
  tp.modes[2].slice_to_part = {3, 0, 3};
  for (size_t mode = 0; mode < t.order(); ++mode) {
    const ModePartition& mp = tp.modes[mode];
    // The oracle: each entry appended to its part in order; every access
    // recorded, then sorted and deduplicated.
    std::vector<SparseTensor> want_parts(mp.num_parts,
                                         SparseTensor(t.dims()));
    std::vector<std::vector<std::vector<uint64_t>>> want_rows(
        mp.num_parts, std::vector<std::vector<uint64_t>>(t.order()));
    for (size_t e = 0; e < t.nnz(); ++e) {
      const uint32_t q = mp.slice_to_part[t.Index(e, mode)];
      want_parts[q].AddRaw(t.IndexTuple(e), t.Value(e));
      for (size_t k = 0; k < t.order(); ++k) {
        if (k != mode) want_rows[q][k].push_back(t.Index(e, k));
      }
    }
    for (auto& part_rows : want_rows) {
      for (auto& rows : part_rows) {
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      }
    }
    const ModePartitionData data = BuildModePartitionData(t, tp, mode);
    EXPECT_EQ(data.mode, mode);
    ASSERT_EQ(data.part_tensors.size(), mp.num_parts);
    for (uint32_t q = 0; q < mp.num_parts; ++q) {
      EXPECT_TRUE(data.part_tensors[q] == want_parts[q])
          << "mode " << mode << " part " << q;
      EXPECT_EQ(data.needed_rows[q], want_rows[q])
          << "mode " << mode << " part " << q;
    }
  }
}

TEST(FactorAssignTest, AccessSetsMatchBruteForceOnZipfTail) {
  // A skewed tensor whose heavy rows sit at index 0 and whose tail rows
  // are touched once or never, with mode sizes that end mid-word: every
  // part's access set per other mode is exactly the set of rows its
  // non-zeros touch, in ascending order.
  GeneratorOptions gen;
  gen.dims = {300, 130, 67};
  gen.nnz = 2500;
  gen.zipf_exponents = {1.2, 1.0, 0.6};
  gen.scramble_indices = false;
  gen.seed = 23;
  const SparseTensor t = GenerateSparseTensor(gen).tensor;
  for (uint32_t parts : {1u, 4u, 15u}) {
    const TensorPartitioning tp =
        PartitionTensor(PartitionerKind::kMaxMin, t, parts);
    for (size_t mode = 0; mode < t.order(); ++mode) {
      std::vector<std::vector<std::set<uint64_t>>> want(
          parts, std::vector<std::set<uint64_t>>(t.order()));
      for (size_t e = 0; e < t.nnz(); ++e) {
        const uint32_t q = tp.modes[mode].slice_to_part[t.Index(e, mode)];
        for (size_t k = 0; k < t.order(); ++k) {
          if (k != mode) want[q][k].insert(t.Index(e, k));
        }
      }
      const ModePartitionData data = BuildModePartitionData(t, tp, mode);
      for (uint32_t q = 0; q < parts; ++q) {
        for (size_t k = 0; k < t.order(); ++k) {
          EXPECT_EQ(data.needed_rows[q][k],
                    std::vector<uint64_t>(want[q][k].begin(),
                                          want[q][k].end()))
              << "parts " << parts << " mode " << mode << " part " << q
              << " factor " << k;
        }
      }
    }
  }
}

TEST(FactorAssignTest, CountRemoteRows) {
  ModePartition factor_partition;
  factor_partition.num_parts = 4;
  factor_partition.slice_to_part = {0, 1, 2, 3, 0, 1};
  factor_partition.part_nnz = {0, 0, 0, 0};
  // Two workers: parts {0,2} -> worker 0, parts {1,3} -> worker 1.
  const std::vector<uint64_t> rows = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(CountRemoteRows(rows, factor_partition, /*local_worker=*/0,
                            /*num_workers=*/2),
            3u);  // rows 1, 3, 5 live on worker 1
  EXPECT_EQ(CountRemoteRows(rows, factor_partition, 1, 2), 3u);
  // Single worker: nothing is remote.
  EXPECT_EQ(CountRemoteRows(rows, factor_partition, 0, 1), 0u);
}

TEST(FactorAssignTest, RowTransferBytes) {
  EXPECT_EQ(RowTransferBytes(0, 10), 0u);
  EXPECT_EQ(RowTransferBytes(3, 10), 3u * (8u + 80u));
}

TEST(FactorAssignTest, EmptyTensorProducesEmptyParts) {
  const SparseTensor t({4, 4});
  TensorPartitioning tp = PartitionTensor(PartitionerKind::kGreedy, t, 2);
  const ModePartitionData data = BuildModePartitionData(t, tp, 0);
  for (const SparseTensor& part : data.part_tensors) {
    EXPECT_EQ(part.nnz(), 0u);
  }
}

}  // namespace
}  // namespace dismastd
