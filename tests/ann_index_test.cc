#include "ann/lsh_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "kernels/kernels.h"
#include "serve/query_engine.h"
#include "serve/servable_model.h"

namespace dismastd {
namespace ann {
namespace {

KruskalTensor MakeFactors(uint64_t seed,
                          std::vector<uint64_t> dims = {300, 40, 12},
                          size_t rank = 6) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

/// Reference Hamming distances, straight __builtin_popcountll.
std::vector<uint32_t> ReferenceHamming(const std::vector<uint64_t>& codes,
                                       size_t words,
                                       const std::vector<uint64_t>& query) {
  const size_t rows = codes.size() / words;
  std::vector<uint32_t> dists(rows);
  for (size_t j = 0; j < rows; ++j) {
    uint32_t d = 0;
    for (size_t w = 0; w < words; ++w) {
      d += static_cast<uint32_t>(
          __builtin_popcountll(codes[j * words + w] ^ query[w]));
    }
    dists[j] = d;
  }
  return dists;
}

/// The counting-select rule by sorting: order rows by (distance, row),
/// take the first n, and return them in row order.
std::vector<uint32_t> ReferenceSelect(const std::vector<uint32_t>& dists,
                                      size_t n) {
  std::vector<uint32_t> order(dists.size());
  for (uint32_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return dists[a] != dists[b] ? dists[a] < dists[b] : a < b;
  });
  order.resize(n);
  std::sort(order.begin(), order.end());
  return order;
}

const kernels::Backend kAllBackends[] = {kernels::Backend::kScalar,
                                         kernels::Backend::kAvx2,
                                         kernels::Backend::kAvx512};

TEST(HammingKernelTest, AllBackendsMatchReferenceExactly) {
  Rng rng(11);
  // 1, 2 and 4 words take the whole-block scan bodies; 3 and 9 the
  // per-row chunked one (9 = a full 8-word chunk plus a masked tail). Row
  // counts cover empty, partial, exact and one-past blocks of 4 and 8
  // rows, and selections of none, one, a third and all of them.
  for (size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{9}}) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                        size_t{1001}}) {
      std::vector<uint64_t> codes(rows * words);
      std::vector<uint64_t> query(words);
      for (auto& c : codes) c = rng.NextU64();
      for (auto& q : query) q = rng.NextU64();
      const std::vector<uint32_t> expected =
          ReferenceHamming(codes, words, query);
      for (size_t n : {size_t{0}, std::min<size_t>(1, rows), rows / 3, rows}) {
        for (kernels::Backend backend : kAllBackends) {
          if (!kernels::Supported(backend)) continue;
          // One sentinel past each output: a body must not store beyond.
          std::vector<uint32_t> dists(rows + 1, 0xDEADBEEFu);
          std::vector<uint32_t> chosen(n + 1, 0xDEADBEEFu);
          kernels::Get(backend).hamming_shortlist(codes.data(), rows, words,
                                                  query.data(), n,
                                                  dists.data(), chosen.data());
          const std::string where = std::string(kernels::BackendName(backend)) +
                                    " words=" + std::to_string(words) +
                                    " rows=" + std::to_string(rows) +
                                    " n=" + std::to_string(n);
          EXPECT_EQ(dists.back(), 0xDEADBEEFu) << where;
          EXPECT_EQ(chosen.back(), 0xDEADBEEFu) << where;
          dists.pop_back();
          chosen.pop_back();
          EXPECT_EQ(dists, expected) << where;
          EXPECT_EQ(chosen, ReferenceSelect(expected, n)) << where;
        }
      }
    }
  }
}

TEST(LshIndexTest, BuildIsDeterministicAcrossRepeatsAndBackends) {
  const KruskalTensor factors = MakeFactors(1);
  LshOptions options;
  options.bits = 96;  // multi-word codes
  const auto a = AnnIndex::Build(factors, options, nullptr, nullptr);
  const auto b = AnnIndex::Build(factors, options, nullptr, nullptr);
  ASSERT_EQ(a->num_modes(), b->num_modes());
  for (size_t m = 0; m < a->num_modes(); ++m) {
    EXPECT_EQ(a->mode(m).codes, b->mode(m).codes) << "mode " << m;
    EXPECT_EQ(a->mode(m).aug_norm, b->mode(m).aug_norm);
  }

  // Forcing each compiled-in backend must reproduce the same index bytes:
  // the encode path runs on the bit-exact fp64 dot kernel.
  for (kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2,
        kernels::Backend::kAvx512}) {
    if (!kernels::Supported(backend)) continue;
    ASSERT_TRUE(kernels::ForceBackend(backend).ok());
    const auto forced = AnnIndex::Build(factors, options, nullptr, nullptr);
    for (size_t m = 0; m < a->num_modes(); ++m) {
      EXPECT_EQ(forced->mode(m).codes, a->mode(m).codes)
          << kernels::BackendName(backend) << " mode " << m;
    }
  }
  kernels::ResetDispatch();
}

TEST(LshIndexTest, ShortlistIsExactCountingSelect) {
  const KruskalTensor factors = MakeFactors(2);
  const size_t mode = 0;
  const size_t rows = factors.factor(mode).rows();
  std::vector<double> weights(factors.rank());
  Rng rng(5);
  for (auto& w : weights) w = rng.NextDouble(-1.0, 1.0);

  struct Case {
    std::shared_ptr<const AnnIndex> index;
    size_t want;
    std::vector<uint32_t> expected;
  };
  std::vector<Case> cases;
  for (size_t bits : {size_t{64}, size_t{96}, size_t{128}, size_t{256}}) {
    LshOptions options;
    options.bits = bits;
    auto index = AnnIndex::Build(factors, options, nullptr, nullptr);
    std::vector<double> aug(factors.rank() + 1, 0.0);
    std::copy(weights.begin(), weights.end(), aug.begin());
    std::vector<uint64_t> qcode(index->planes().words(), 0);
    index->planes().Encode(aug.data(), qcode.data());
    const std::vector<uint32_t> dists =
        ReferenceHamming(index->mode(mode).codes, index->mode(mode).words,
                         qcode);
    // A size that cuts through a tie: one past the rows below the
    // smallest distance shared by at least two rows.
    std::vector<uint32_t> sorted = dists;
    std::sort(sorted.begin(), sorted.end());
    size_t tie_cut = 0;
    for (size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] == sorted[i - 1]) {
        tie_cut = static_cast<size_t>(
                      std::lower_bound(sorted.begin(), sorted.end(),
                                       sorted[i]) -
                      sorted.begin()) +
                  1;
        break;
      }
    }
    ASSERT_GT(tie_cut, 0u) << "bits=" << bits;
    for (size_t want : {size_t{1}, tie_cut, rows - 1, rows}) {
      cases.push_back({index, want, ReferenceSelect(dists, want)});
    }
  }

  // Every backend, each from two threads at once: the per-thread scratch
  // must not leak between concurrent queries (run under TSan).
  for (kernels::Backend backend : kAllBackends) {
    if (!kernels::Supported(backend)) continue;
    ASSERT_TRUE(kernels::ForceBackend(backend).ok());
    std::atomic<int> mismatches{0};
    auto run = [&] {
      for (const Case& c : cases) {
        if (c.index->Shortlist(mode, weights.data(), c.want) != c.expected) {
          mismatches.fetch_add(1);
        }
      }
    };
    std::thread other(run);
    run();
    other.join();
    EXPECT_EQ(mismatches.load(), 0) << kernels::BackendName(backend);
  }
  kernels::ResetDispatch();
}

TEST(LshIndexTest, ShortlistClampsAndHandlesEmptyMode) {
  std::vector<Matrix> factors;
  Rng rng(3);
  factors.push_back(Matrix::Random(20, 4, rng));
  factors.push_back(Matrix(0, 4));
  const KruskalTensor model(std::move(factors));
  const auto index = AnnIndex::Build(model, LshOptions{}, nullptr, nullptr);

  std::vector<double> weights(4, 0.5);
  const auto all = index->Shortlist(0, weights.data(), 1000);
  ASSERT_EQ(all.size(), 20u);
  for (uint32_t r = 0; r < 20; ++r) EXPECT_EQ(all[r], r);
  EXPECT_TRUE(index->Shortlist(0, weights.data(), 0).empty());
  EXPECT_TRUE(index->Shortlist(1, weights.data(), 5).empty());
}

TEST(LshIndexTest, IncrementalPatchReusesUnchangedRows) {
  KruskalTensor factors = MakeFactors(4);
  const auto base = AnnIndex::Build(factors, LshOptions{}, nullptr, nullptr);
  EXPECT_EQ(base->reused_rows(), 0u);

  // Touch 7 rows of mode 0 with small values so the mode's max row norm
  // cannot grow; every untouched row must keep its code.
  KruskalTensor updated = factors;
  Matrix& f0 = updated.mutable_factor(0);
  for (size_t r = 0; r < 7; ++r) {
    for (size_t c = 0; c < f0.cols(); ++c) f0(r * 31, c) = 0.01 * (r + 1);
  }
  const auto patched =
      AnnIndex::Build(updated, LshOptions{}, base.get(), &factors);
  const size_t rows0 = f0.rows();
  EXPECT_EQ(patched->mode(0).hashed_rows, 7u);
  EXPECT_EQ(patched->mode(0).reused_rows, rows0 - 7);
  // Other modes are byte-identical: full reuse.
  EXPECT_EQ(patched->mode(1).reused_rows, updated.factor(1).rows());
  EXPECT_EQ(patched->mode(2).reused_rows, updated.factor(2).rows());

  // Because the augmentation norm did not change, the patched index must
  // be bit-identical to a from-scratch build of the updated factors.
  const auto fresh =
      AnnIndex::Build(updated, LshOptions{}, nullptr, nullptr);
  for (size_t m = 0; m < fresh->num_modes(); ++m) {
    EXPECT_EQ(patched->mode(m).codes, fresh->mode(m).codes) << "mode " << m;
  }
}

TEST(LshIndexTest, GrownModeReusesOldRowsAndHashesNewOnes) {
  KruskalTensor factors = MakeFactors(5);
  const auto base = AnnIndex::Build(factors, LshOptions{}, nullptr, nullptr);

  // Append 25 small-valued rows to mode 0 (norms below the existing max,
  // so the augmentation norm is stable).
  const Matrix& f0 = factors.factor(0);
  Matrix grown(f0.rows() + 25, f0.cols());
  for (size_t r = 0; r < f0.rows(); ++r) {
    for (size_t c = 0; c < f0.cols(); ++c) grown(r, c) = f0(r, c);
  }
  Rng rng(6);
  for (size_t r = f0.rows(); r < grown.rows(); ++r) {
    for (size_t c = 0; c < grown.cols(); ++c) {
      grown(r, c) = 0.05 * rng.NextDouble();
    }
  }
  std::vector<Matrix> updated_factors = factors.factors();
  updated_factors[0] = std::move(grown);
  const KruskalTensor updated(std::move(updated_factors));

  const auto patched =
      AnnIndex::Build(updated, LshOptions{}, base.get(), &factors);
  EXPECT_EQ(patched->mode(0).reused_rows, factors.factor(0).rows());
  EXPECT_EQ(patched->mode(0).hashed_rows, 25u);
}

TEST(LshIndexTest, MaxNormGrowthRehashesTheWholeMode) {
  KruskalTensor factors = MakeFactors(7);
  const auto base = AnnIndex::Build(factors, LshOptions{}, nullptr, nullptr);

  KruskalTensor updated = factors;
  Matrix& f0 = updated.mutable_factor(0);
  for (size_t c = 0; c < f0.cols(); ++c) f0(3, c) = 50.0;  // new max norm
  const auto patched =
      AnnIndex::Build(updated, LshOptions{}, base.get(), &factors);
  // Every row of mode 0 re-hashed under the new augmentation norm.
  EXPECT_EQ(patched->mode(0).reused_rows, 0u);
  EXPECT_EQ(patched->mode(0).hashed_rows, updated.factor(0).rows());
  EXPECT_GT(patched->mode(0).aug_norm, base->mode(0).aug_norm);
  // The result matches a fresh build exactly (patching never leaves the
  // index in a state a fresh build could not produce when M grows).
  const auto fresh =
      AnnIndex::Build(updated, LshOptions{}, nullptr, nullptr);
  EXPECT_EQ(patched->mode(0).codes, fresh->mode(0).codes);
}

TEST(LshIndexTest, AnnRecallIsHighOnSkinnyFactors) {
  using serve::Precision;
  using serve::ServableModel;
  const auto model = ServableModel::Build(MakeFactors(8, {2000, 30, 10}, 8),
                                          1, 0);
  const size_t k = 10;
  size_t hits = 0, total = 0;
  for (uint64_t anchor1 = 0; anchor1 < 20; ++anchor1) {
    const std::vector<uint64_t> anchor = {0, anchor1, anchor1 % 10};
    const auto exact = model->TopK(0, anchor, k);
    const auto ann =
        model->TopKAnn(0, anchor, k, Precision::kF64, /*probes=*/16);
    ASSERT_TRUE(ann.ok()) << ann.status();
    std::set<uint64_t> exact_ids;
    for (const auto& item : exact) exact_ids.insert(item.index);
    for (const auto& item : ann.value().items) {
      hits += exact_ids.count(item.index);
    }
    total += k;
    // The shortlist scanned far fewer rows than the exact scan.
    EXPECT_LE(ann.value().rows_scored, 16 * k);
  }
  const double recall =
      static_cast<double>(hits) / static_cast<double>(total);
  EXPECT_GE(recall, 0.8) << "recall@10 " << recall;
}

TEST(LshIndexTest, ConcurrentPublishWhileAnnQuerying) {
  // TSan target: one publisher streams modified factors while reader
  // threads run ANN + cached queries. Every answer must come from a
  // coherent snapshot (index and factors travel together), so no torn
  // reads and no errors once the first model is live.
  serve::ModelStore store;
  store.Publish(MakeFactors(9, {400, 30, 10}, 5), 0);
  serve::ServeMetrics metrics;
  serve::TopKResultCache cache(256);
  serve::QueryEngine engine(&store, nullptr, &metrics, nullptr, &cache);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      serve::TopKQuery query;
      query.target_mode = 0;
      query.k = 5;
      query.search = t == 0 ? serve::SearchMode::kAnnCached
                            : serve::SearchMode::kAnn;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        query.anchor = {0, i % 30, i % 10};
        ++i;
        if (!engine.TopKWithBound(query).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (uint64_t step = 1; step <= 20; ++step) {
    KruskalTensor factors = MakeFactors(9, {400, 30, 10}, 5);
    Matrix& f0 = factors.mutable_factor(0);
    for (size_t c = 0; c < f0.cols(); ++c) {
      f0(step % f0.rows(), c) = 0.001 * static_cast<double>(step);
    }
    store.Publish(std::move(factors), step);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  // The incremental patch path ran: later publishes reused codes.
  EXPECT_GT(store.Current()->ann_index()->reused_rows(), 0u);
}

}  // namespace
}  // namespace ann
}  // namespace dismastd
