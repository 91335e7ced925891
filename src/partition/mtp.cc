#include "partition/mtp.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>
#include <tuple>
#include <utility>

namespace dismastd {

ModePartition MaxMinPartitionMode(const std::vector<uint64_t>& slice_nnz,
                                  uint32_t num_parts) {
  DISMASTD_CHECK(num_parts >= 1);
  const size_t num_slices = slice_nnz.size();
  ModePartition result;
  result.num_parts = num_parts;
  result.slice_to_part.assign(num_slices, 0);
  result.part_nnz.assign(num_parts, 0);

  // Line 3: sort slices by nnz descending; ties by index keep determinism.
  // An LSD radix sort of the loads' distance below the largest one: each
  // byte's counting pass is stable, so equal loads stay in index order,
  // and the zero-nnz slices close the order.
  uint64_t max_nnz = 0;
  for (uint64_t nnz : slice_nnz) max_nnz = std::max(max_nnz, nnz);
  std::vector<size_t> order(num_slices);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> sorted(num_slices);
  for (unsigned shift = 0; shift < 64 && (max_nnz >> shift) != 0;
       shift += 8) {
    const auto digit = [&](size_t slice) {
      return static_cast<size_t>(((max_nnz - slice_nnz[slice]) >> shift) &
                                 0xFF);
    };
    std::array<size_t, 257> next{};
    for (size_t slice : order) ++next[digit(slice) + 1];
    for (size_t d = 1; d < next.size(); ++d) next[d] += next[d - 1];
    for (size_t slice : order) sorted[next[digit(slice)]++] = slice;
    order.swap(sorted);
  }

  // Lines 5-7: assign the heaviest remaining slice to the lightest
  // partition. Min-heap keyed by (load, assigned slice count, part id): the
  // count breaks exact load ties, so slices spread over partitions of
  // equal load.
  using HeapEntry = std::tuple<uint64_t, uint64_t, uint32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>
      lightest;
  for (uint32_t p = 0; p < num_parts; ++p) lightest.emplace(0, 0, p);
  size_t next_slice = 0;
  for (; next_slice < num_slices && slice_nnz[order[next_slice]] > 0;
       ++next_slice) {
    const size_t slice = order[next_slice];
    auto [load, count, part] = lightest.top();
    lightest.pop();
    result.slice_to_part[slice] = part;
    load += slice_nnz[slice];
    result.part_nnz[part] = load;
    lightest.emplace(load, count + 1, part);
  }

  // A zero-nnz slice leaves every load unchanged, so the heap hands the
  // zero-nnz slices only to the partitions tied at the lightest load, and
  // among those its keys deal them out in rounds: the round at level v
  // gives one slice to each tied partition with at most v slices, in id
  // order. With one lightest partition, it takes them all. The heap pops
  // the tied partitions by ascending count.
  if (next_slice == num_slices) return result;
  const uint64_t lightest_load = std::get<0>(lightest.top());
  std::vector<std::pair<uint64_t, uint32_t>> tied;  // (count, part)
  while (!lightest.empty() && std::get<0>(lightest.top()) == lightest_load) {
    tied.emplace_back(std::get<1>(lightest.top()), std::get<2>(lightest.top()));
    lightest.pop();
  }
  std::vector<uint32_t> round;  // ascending ids
  for (uint64_t level = tied[0].first; next_slice < num_slices; ++level) {
    while (round.size() < tied.size() && tied[round.size()].first <= level) {
      const uint32_t part = tied[round.size()].second;
      round.insert(std::upper_bound(round.begin(), round.end(), part), part);
    }
    for (size_t i = 0; i < round.size() && next_slice < num_slices; ++i) {
      result.slice_to_part[order[next_slice++]] = round[i];
    }
  }
  return result;
}

}  // namespace dismastd
