#include "partition/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <string>
#include <tuple>

#include "common/random.h"
#include "partition/gtp.h"
#include "partition/mtp.h"
#include "partition/stats.h"

namespace dismastd {
namespace {

std::vector<uint64_t> RandomHistogram(size_t slices, uint64_t max_value,
                                      uint64_t seed, double zipf = 0.0) {
  Rng rng(seed);
  std::vector<uint64_t> hist(slices);
  if (zipf > 0.0) {
    ZipfSampler sampler(slices, zipf);
    for (uint64_t draw = 0; draw < slices * max_value / 2; ++draw) {
      ++hist[sampler.Sample(rng)];
    }
  } else {
    for (auto& h : hist) h = rng.NextBounded(max_value + 1);
  }
  return hist;
}

void ExpectValidPartition(const ModePartition& partition,
                          const std::vector<uint64_t>& slice_nnz,
                          uint32_t parts) {
  EXPECT_EQ(partition.num_parts, parts);
  EXPECT_TRUE(partition.Validate(slice_nnz).ok());
  const uint64_t total =
      std::accumulate(slice_nnz.begin(), slice_nnz.end(), uint64_t{0});
  const uint64_t part_total = std::accumulate(
      partition.part_nnz.begin(), partition.part_nnz.end(), uint64_t{0});
  EXPECT_EQ(total, part_total);
}

TEST(GtpTest, ContiguousRanges) {
  const std::vector<uint64_t> hist = RandomHistogram(40, 20, 1);
  const ModePartition p = GreedyPartitionMode(hist, 5);
  ExpectValidPartition(p, hist, 5);
  // GTP assigns boundaries in slice order: the part id must be
  // non-decreasing across slices.
  for (size_t i = 1; i < p.slice_to_part.size(); ++i) {
    EXPECT_GE(p.slice_to_part[i], p.slice_to_part[i - 1]);
  }
}

TEST(GtpTest, UniformSlicesSplitEvenly) {
  const std::vector<uint64_t> hist(20, 10);  // 20 slices x 10 nnz, p=4
  const ModePartition p = GreedyPartitionMode(hist, 4);
  for (uint64_t load : p.part_nnz) EXPECT_EQ(load, 50u);
}

TEST(GtpTest, SinglePartitionTakesAll) {
  const std::vector<uint64_t> hist = RandomHistogram(10, 5, 2);
  const ModePartition p = GreedyPartitionMode(hist, 1);
  ExpectValidPartition(p, hist, 1);
  for (uint32_t part : p.slice_to_part) EXPECT_EQ(part, 0u);
}

TEST(GtpTest, MorePartsThanSlices) {
  const std::vector<uint64_t> hist = {5, 5, 5};
  const ModePartition p = GreedyPartitionMode(hist, 8);
  ExpectValidPartition(p, hist, 8);
}

TEST(GtpTest, EmptyHistogram) {
  const std::vector<uint64_t> hist;
  const ModePartition p = GreedyPartitionMode(hist, 3);
  EXPECT_TRUE(p.slice_to_part.empty());
  EXPECT_EQ(p.part_nnz.size(), 3u);
}

TEST(GtpTest, AllZeroSlices) {
  const std::vector<uint64_t> hist(10, 0);
  const ModePartition p = GreedyPartitionMode(hist, 3);
  ExpectValidPartition(p, hist, 3);
}

TEST(GtpTest, BalanceCorrectionPrefersCloserLoad) {
  // Target = 10. After slice 0 (4), adding slice 1 (20) overshoots to 24:
  // |24-10| = 14 > |10-4| = 6, so slice 1 must open the next partition.
  const std::vector<uint64_t> hist = {4, 20, 1, 1};
  const ModePartition p = GreedyPartitionMode(hist, 2);
  EXPECT_EQ(p.slice_to_part[0], 0u);
  EXPECT_EQ(p.slice_to_part[1], 1u);
}

TEST(GtpTest, KeepsOvershootWhenCloser) {
  // Target = 13. sum=12 then slice of 2: with = 14 (|1|), without = 12
  // (|1|)... make it unambiguous: sum=10, slice=5 -> with=15 (2), without
  // =10 (3): keep the slice.
  const std::vector<uint64_t> hist = {10, 5, 6, 5};
  const ModePartition p = GreedyPartitionMode(hist, 2);
  EXPECT_EQ(p.slice_to_part[1], 0u);  // slice 1 stays in partition 0
}

TEST(MtpTest, ValidAndBalanced) {
  const std::vector<uint64_t> hist = RandomHistogram(50, 30, 3, 1.2);
  const ModePartition p = MaxMinPartitionMode(hist, 6);
  ExpectValidPartition(p, hist, 6);
}

TEST(MtpTest, LptBoundHolds) {
  // LPT guarantee: max load <= mean + largest slice (loose but sufficient).
  const std::vector<uint64_t> hist = RandomHistogram(64, 100, 4, 1.0);
  const uint64_t max_slice = *std::max_element(hist.begin(), hist.end());
  const uint64_t total =
      std::accumulate(hist.begin(), hist.end(), uint64_t{0});
  const ModePartition p = MaxMinPartitionMode(hist, 8);
  const uint64_t max_load =
      *std::max_element(p.part_nnz.begin(), p.part_nnz.end());
  EXPECT_LE(max_load, total / 8 + max_slice);
}

TEST(MtpTest, HeaviestSliceAloneWhenDominant) {
  const std::vector<uint64_t> hist = {100, 1, 1, 1, 1, 1};
  const ModePartition p = MaxMinPartitionMode(hist, 2);
  // The dominant slice occupies one partition; all small ones the other.
  const uint32_t heavy_part = p.slice_to_part[0];
  for (size_t i = 1; i < hist.size(); ++i) {
    EXPECT_NE(p.slice_to_part[i], heavy_part);
  }
}

TEST(MtpTest, DeterministicTieBreaking) {
  const std::vector<uint64_t> hist = {5, 5, 5, 5};
  const ModePartition a = MaxMinPartitionMode(hist, 2);
  const ModePartition b = MaxMinPartitionMode(hist, 2);
  EXPECT_EQ(a.slice_to_part, b.slice_to_part);
}

/// Alg. 3 as first written here, kept as the reference MTP must match: a
/// stable sort of every slice by nnz descending, then one pop and push of a
/// (load, slice count, id) min-heap per slice.
ModePartition ReferenceMaxMin(const std::vector<uint64_t>& slice_nnz,
                              uint32_t num_parts) {
  ModePartition result;
  result.num_parts = num_parts;
  result.slice_to_part.assign(slice_nnz.size(), 0);
  result.part_nnz.assign(num_parts, 0);
  std::vector<size_t> order(slice_nnz.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slice_nnz[a] > slice_nnz[b];
  });
  using HeapEntry = std::tuple<uint64_t, uint64_t, uint32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      lightest;
  for (uint32_t p = 0; p < num_parts; ++p) lightest.emplace(0, 0, p);
  for (size_t slice : order) {
    auto [load, count, part] = lightest.top();
    lightest.pop();
    result.slice_to_part[slice] = part;
    load += slice_nnz[slice];
    result.part_nnz[part] = load;
    lightest.emplace(load, count + 1, part);
  }
  return result;
}

void ExpectReferenceMaxMin(const std::vector<uint64_t>& hist,
                           uint32_t parts, const std::string& what) {
  const ModePartition want = ReferenceMaxMin(hist, parts);
  const ModePartition got = MaxMinPartitionMode(hist, parts);
  EXPECT_EQ(got.num_parts, parts) << what;
  EXPECT_EQ(got.slice_to_part, want.slice_to_part) << what;
  EXPECT_EQ(got.part_nnz, want.part_nnz) << what;
}

TEST(MtpTest, MatchesReferenceAlgorithmThree) {
  const uint32_t kParts[] = {1, 2, 3, 7, 15, 38};
  Rng rng(77);
  for (uint32_t parts : kParts) {
    const std::string at = " parts=" + std::to_string(parts);
    for (uint64_t trial = 0; trial < 40; ++trial) {
      // Random loads with a long zero-nnz tail: a small or large share of
      // the slices non-empty, small loads (many exact ties) or loads
      // spread over several bytes.
      const size_t slices = 1 + rng.NextBounded(3000);
      const uint64_t nonzero_per_64 = 1 + rng.NextBounded(48);
      const uint64_t max_load =
          trial % 3 == 0 ? 3 : trial % 3 == 1 ? 60 : uint64_t{1} << 40;
      std::vector<uint64_t> hist(slices, 0);
      for (uint64_t& h : hist) {
        if (rng.NextBounded(64) < nonzero_per_64) {
          h = 1 + rng.NextBounded(max_load);
        }
      }
      ExpectReferenceMaxMin(hist, parts,
                            "random trial=" + std::to_string(trial) + at);
    }
    // All-zero loads, fewer and more slices than parts.
    for (size_t slices : {size_t{0}, size_t{1}, size_t{5}, size_t{200}}) {
      ExpectReferenceMaxMin(std::vector<uint64_t>(slices, 0), parts,
                            "all zero slices=" + std::to_string(slices) + at);
    }
    // Exact load ties: equal loads, then ties reached with unequal slice
    // counts (2 = 1 + 1), each before a zero tail.
    std::vector<uint64_t> equal(4 * parts, 5);
    equal.resize(equal.size() + 100, 0);
    ExpectReferenceMaxMin(equal, parts, "equal loads" + at);
    std::vector<uint64_t> uneven(parts - parts / 2, 2);
    uneven.resize(uneven.size() + 2 * (parts / 2), 1);
    uneven.resize(uneven.size() + 3 * parts + 7, 0);
    ExpectReferenceMaxMin(uneven, parts, "uneven counts" + at);
    // More parts than slices.
    ExpectReferenceMaxMin({4, 0, 9}, parts, "three slices" + at);
  }
  // The largest loads a uint64_t histogram carries, and a Zipf one.
  ExpectReferenceMaxMin({~uint64_t{0} >> 2, 0, 1, ~uint64_t{0} >> 2, 0, 7},
                        3, "huge loads");
  ExpectReferenceMaxMin(RandomHistogram(5000, 4, 9, 1.1), 15, "zipf");
}

TEST(MtpTest, BeatsGtpOnSkewedData) {
  // The paper's Table IV observation: on skewed tensors MTP achieves a much
  // lower load stddev than GTP.
  const std::vector<uint64_t> hist = RandomHistogram(200, 60, 5, 1.3);
  const ModePartition gtp = GreedyPartitionMode(hist, 15);
  const ModePartition mtp = MaxMinPartitionMode(hist, 15);
  const double gtp_cv = ComputeBalance(gtp).cv;
  const double mtp_cv = ComputeBalance(mtp).cv;
  EXPECT_LT(mtp_cv, gtp_cv);
}

TEST(PartitionModeDispatchTest, KindSelectsAlgorithm) {
  const std::vector<uint64_t> hist = RandomHistogram(30, 10, 6);
  EXPECT_EQ(PartitionMode(PartitionerKind::kGreedy, hist, 4).slice_to_part,
            GreedyPartitionMode(hist, 4).slice_to_part);
  EXPECT_EQ(PartitionMode(PartitionerKind::kMaxMin, hist, 4).slice_to_part,
            MaxMinPartitionMode(hist, 4).slice_to_part);
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kGreedy), "GTP");
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kMaxMin), "MTP");
}

TEST(PartitionTensorTest, PartitionsEveryMode) {
  SparseTensor t({10, 8, 6});
  Rng rng(7);
  for (int e = 0; e < 100; ++e) {
    t.Add({rng.NextBounded(10), rng.NextBounded(8), rng.NextBounded(6)},
          1.0);
  }
  t.Coalesce();
  const TensorPartitioning tp =
      PartitionTensor(PartitionerKind::kMaxMin, t, 3);
  ASSERT_EQ(tp.order(), 3u);
  for (size_t mode = 0; mode < 3; ++mode) {
    EXPECT_TRUE(tp.modes[mode].Validate(t.SliceNnzCounts(mode)).ok());
  }
}

TEST(PartitionValidateTest, DetectsCorruption) {
  const std::vector<uint64_t> hist = {1, 2, 3};
  ModePartition p = GreedyPartitionMode(hist, 2);
  ModePartition bad_map = p;
  bad_map.slice_to_part[0] = 99;
  EXPECT_FALSE(bad_map.Validate(hist).ok());
  ModePartition bad_load = p;
  bad_load.part_nnz[0] += 1;
  EXPECT_FALSE(bad_load.Validate(hist).ok());
  ModePartition bad_size = p;
  bad_size.slice_to_part.pop_back();
  EXPECT_FALSE(bad_size.Validate(hist).ok());
}

TEST(PartitionStatsTest, BalanceOnKnownLoads) {
  ModePartition p;
  p.num_parts = 2;
  p.slice_to_part = {0, 1};
  p.part_nnz = {10, 30};
  const PartitionBalance balance = ComputeBalance(p);
  EXPECT_EQ(balance.max_load, 30u);
  EXPECT_EQ(balance.min_load, 10u);
  EXPECT_DOUBLE_EQ(balance.mean_load, 20.0);
  EXPECT_DOUBLE_EQ(balance.stddev, 10.0);
  EXPECT_DOUBLE_EQ(balance.cv, 0.5);
  EXPECT_DOUBLE_EQ(balance.imbalance, 1.5);
}

TEST(PartitionStatsTest, PerfectBalanceHasZeroCv) {
  ModePartition p;
  p.num_parts = 4;
  p.part_nnz = {5, 5, 5, 5};
  p.slice_to_part = {0, 1, 2, 3};
  const PartitionBalance balance = ComputeBalance(p);
  EXPECT_DOUBLE_EQ(balance.cv, 0.0);
  EXPECT_DOUBLE_EQ(balance.imbalance, 1.0);
}

class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>> {};

TEST_P(PartitionPropertyTest, BothHeuristicsProduceValidPartitions) {
  const auto [parts, zipf] = GetParam();
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const std::vector<uint64_t> hist =
        RandomHistogram(73, 40, 100 + seed, zipf);
    ExpectValidPartition(GreedyPartitionMode(hist, parts), hist, parts);
    ExpectValidPartition(MaxMinPartitionMode(hist, parts), hist, parts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 8u, 15u, 38u),
                       ::testing::Values(0.0, 0.8, 1.5)));

}  // namespace
}  // namespace dismastd
