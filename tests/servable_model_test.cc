#include "serve/servable_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "la/ops.h"

namespace dismastd {
namespace serve {
namespace {

KruskalTensor MakeFactors(uint64_t seed, std::vector<uint64_t> dims = {9, 7, 5},
                          size_t rank = 3) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

TEST(ServableModelTest, CarriesVersionAndStepMetadata) {
  const auto model = ServableModel::Build(MakeFactors(1), 7, 42);
  EXPECT_EQ(model->version(), 7u);
  EXPECT_EQ(model->step(), 42u);
  EXPECT_EQ(model->order(), 3u);
  EXPECT_EQ(model->rank(), 3u);
  EXPECT_EQ(model->dims(), (std::vector<uint64_t>{9, 7, 5}));
}

TEST(ServableModelTest, PrecomputedGramsMatchDirectProducts) {
  const KruskalTensor factors = MakeFactors(2);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (size_t mode = 0; mode < factors.order(); ++mode) {
    const Matrix expected =
        TransposeTimes(factors.factor(mode), factors.factor(mode));
    EXPECT_TRUE(model->gram(mode).AllClose(expected, 1e-12));
  }
}

TEST(ServableModelTest, ColumnNormsMatchManualComputation) {
  const KruskalTensor factors = MakeFactors(3);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (size_t mode = 0; mode < factors.order(); ++mode) {
    const Matrix& f = factors.factor(mode);
    ASSERT_EQ(model->column_norms(mode).size(), f.cols());
    for (size_t c = 0; c < f.cols(); ++c) {
      double sum = 0.0;
      for (size_t r = 0; r < f.rows(); ++r) sum += f(r, c) * f(r, c);
      EXPECT_NEAR(model->column_norms(mode)[c], std::sqrt(sum), 1e-12);
    }
  }
}

TEST(ServableModelTest, NormSquaredMatchesKruskal) {
  const KruskalTensor factors = MakeFactors(4);
  const auto model = ServableModel::Build(factors, 1, 0);
  EXPECT_NEAR(model->norm_squared(), factors.NormSquaredViaGrams(), 1e-9);
}

TEST(ServableModelTest, PredictMatchesValueAt) {
  const KruskalTensor factors = MakeFactors(5);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (uint64_t i = 0; i < 9; ++i) {
    for (uint64_t j = 0; j < 7; ++j) {
      const uint64_t index[] = {i, j, i % 5};
      EXPECT_EQ(model->Predict(index), factors.ValueAt(index));
    }
  }
}

TEST(ServableModelTest, ValidateIndexChecksArityAndBounds) {
  const auto model = ServableModel::Build(MakeFactors(6), 1, 0);
  EXPECT_TRUE(model->ValidateIndex({0, 0, 0}).ok());
  EXPECT_TRUE(model->ValidateIndex({8, 6, 4}).ok());
  EXPECT_EQ(model->ValidateIndex({0, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model->ValidateIndex({9, 0, 0}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(model->ValidateIndex({0, 0, 5}).code(), StatusCode::kOutOfRange);
}

TEST(ServableModelTest, FingerprintIsStableAndRecomputable) {
  const auto a = ServableModel::Build(MakeFactors(7), 1, 0);
  const auto b = ServableModel::Build(MakeFactors(7), 2, 1);
  const auto c = ServableModel::Build(MakeFactors(8), 3, 2);
  // Same factors -> same fingerprint regardless of version metadata.
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  EXPECT_NE(a->fingerprint(), c->fingerprint());
  EXPECT_EQ(a->ComputeFingerprint(), a->fingerprint());
}

/// Brute-force oracle: score every candidate with ValueAt, sort by
/// (score desc, index asc), take K.
std::vector<ScoredIndex> BruteForceTopK(const KruskalTensor& factors,
                                        size_t target_mode,
                                        std::vector<uint64_t> anchor,
                                        size_t k) {
  const uint64_t candidates = factors.dims()[target_mode];
  std::vector<ScoredIndex> scored;
  for (uint64_t j = 0; j < candidates; ++j) {
    anchor[target_mode] = j;
    scored.push_back({j, factors.ValueAt(anchor.data())});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredIndex& a, const ScoredIndex& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.index < b.index;
            });
  scored.resize(std::min<size_t>(k, scored.size()));
  return scored;
}

TEST(ServableModelTest, TopKMatchesBruteForceRescore) {
  const KruskalTensor factors = MakeFactors(9, {20, 40, 6}, 4);
  const auto model = ServableModel::Build(factors, 1, 0);
  for (size_t target_mode = 0; target_mode < 3; ++target_mode) {
    const std::vector<uint64_t> anchor = {3, 5, 2};
    const auto got = model->TopK(target_mode, anchor, 5).items;
    const auto expected = BruteForceTopK(factors, target_mode, anchor, 5);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, expected[i].index)
          << "target_mode=" << target_mode << " position " << i;
      EXPECT_NEAR(got[i].score, expected[i].score, 1e-12);
    }
  }
}

TEST(ServableModelTest, TopKClampsKToCandidateCount) {
  const auto model = ServableModel::Build(MakeFactors(10), 1, 0);
  const auto all = model->TopK(1, {0, 0, 0}, 1000).items;
  EXPECT_EQ(all.size(), 7u);
  // Clamped result is fully sorted.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].score, all[i].score);
  }
}

TEST(ServableModelTest, TopKScoresAreCombinationWeightsDotRows) {
  const KruskalTensor factors = MakeFactors(11);
  const auto model = ServableModel::Build(factors, 1, 0);
  const std::vector<uint64_t> anchor = {4, 0, 3};
  const std::vector<double> weights = model->CombinationWeights(1, anchor);
  const auto top = model->TopK(1, anchor, 7).items;
  for (const ScoredIndex& entry : top) {
    double expected = 0.0;
    for (size_t f = 0; f < model->rank(); ++f) {
      expected += factors.factor(1)(static_cast<size_t>(entry.index), f) *
                  weights[f];
    }
    EXPECT_NEAR(entry.score, expected, 1e-12);
  }
}

TEST(ServableModelTest, AnnFullShortlistIsBitExact) {
  // With the shortlist covering every candidate, ANN + exact re-rank is the
  // same computation as the brute-force scan: scores must match bit for bit.
  const KruskalTensor factors = MakeFactors(14, {64, 48, 6}, 4);
  const auto model = ServableModel::Build(factors, 1, 0);
  ASSERT_NE(model->ann_index(), nullptr);
  const std::vector<uint64_t> anchor = {3, 0, 2};
  const TopKResult exact = model->TopK(1, anchor, 10);
  const TopKResult ann = model->TopKAnn(1, anchor, 10, /*probes=*/1000);
  EXPECT_EQ(ann.rows_scored, 48u);
  ASSERT_EQ(ann.items.size(), exact.items.size());
  for (size_t i = 0; i < exact.items.size(); ++i) {
    EXPECT_EQ(ann.items[i].index, exact.items[i].index);
    // Bit-exact, not approximately equal: the shortlist rows go through the
    // one-row form of the full scan's blocked-8 dot.
    EXPECT_EQ(ann.items[i].score, exact.items[i].score);
  }
}

TEST(ServableModelTest, TopKBreaksExactTiesByIndexAcrossTheKBoundary) {
  // Mode 1 repeats 6 distinct rows 4 times each, so every candidate's score
  // ties exactly with three others, and k = 10 cuts the third tie group in
  // half: the answer keeps that group's two lowest indices, as the oracle
  // does, for the exact scan and for ANN with a full shortlist.
  Rng rng(17);
  const Matrix distinct = Matrix::Random(6, 3, rng);
  Matrix repeated(24, 3);
  for (size_t j = 0; j < repeated.rows(); ++j) {
    for (size_t f = 0; f < repeated.cols(); ++f) {
      repeated(j, f) = distinct(j % 6, f);
    }
  }
  std::vector<Matrix> modes;
  modes.push_back(Matrix::Random(9, 3, rng));
  modes.push_back(repeated);
  modes.push_back(Matrix::Random(5, 3, rng));
  const KruskalTensor factors(std::move(modes));
  const auto model = ServableModel::Build(factors, 1, 0);
  const std::vector<uint64_t> anchor = {4, 0, 2};
  const size_t k = 10;
  const auto expected = BruteForceTopK(factors, 1, anchor, k + 1);
  ASSERT_EQ(expected[k - 1].score, expected[k].score);

  const TopKResult exact = model->TopK(1, anchor, k);
  const TopKResult ann = model->TopKAnn(1, anchor, k, /*probes=*/1000);
  EXPECT_EQ(ann.rows_scored, 24u);
  EXPECT_EQ(model->TopK(1, anchor, k).items, exact.items);
  for (const TopKResult* got : {&exact, &ann}) {
    ASSERT_EQ(got->items.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got->items[i].index, expected[i].index) << "position " << i;
      EXPECT_NEAR(got->items[i].score, expected[i].score, 1e-12);
      EXPECT_EQ(got->items[i].score, exact.items[i].score);
    }
  }
}

/// The best k by a full sort, score descending, index ascending: the
/// answer SelectTopK must give.
std::vector<ScoredIndex> SortedTopK(const std::vector<double>& scores,
                                    const std::vector<uint32_t>* ids,
                                    size_t k) {
  std::vector<ScoredIndex> all;
  for (size_t j = 0; j < scores.size(); ++j) {
    all.push_back({ids != nullptr ? (*ids)[j] : j, scores[j]});
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredIndex& a, const ScoredIndex& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.index < b.index;
            });
  all.resize(std::min(k, all.size()));
  return all;
}

/// The full pass without a pre-pass: the first k scores form a heap whose
/// front is the worst kept, and each later score replaces the front when
/// it ranks better. What a NaN score must get.
std::vector<ScoredIndex> FullPassTopK(const std::vector<double>& scores,
                                      size_t k) {
  const auto better = [](const ScoredIndex& a, const ScoredIndex& b) {
    return a.score != b.score ? a.score > b.score : a.index < b.index;
  };
  std::vector<ScoredIndex> top;
  for (size_t j = 0; j < std::min(k, scores.size()); ++j) {
    top.push_back({j, scores[j]});
  }
  std::make_heap(top.begin(), top.end(), better);
  for (size_t j = top.size(); j < scores.size(); ++j) {
    if (!better({j, scores[j]}, top.front())) continue;
    std::pop_heap(top.begin(), top.end(), better);
    top.back() = {j, scores[j]};
    std::push_heap(top.begin(), top.end(), better);
  }
  std::sort_heap(top.begin(), top.end(), better);
  return top;
}

/// Equal indices and score bits, so +0.0 and -0.0 differ.
bool SameBits(const std::vector<ScoredIndex>& a,
              const std::vector<ScoredIndex>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(SelectTopKTest, MatchesAFullSortOnEveryOrderTieAndSize) {
  // Sizes below one block of 16 (no pre-pass), inside and past the
  // pre-pass's 1,024 scores; k around the 16 lanes; ascending,
  // descending, constant and random scores, few distinct values (ties at
  // the k-th score) and mixed +0.0 / -0.0; positions as indices and a
  // shortlist's descending row ids.
  Rng rng(23);
  for (size_t n : {size_t{10}, size_t{15}, size_t{100}, size_t{1000},
                   size_t{5000}}) {
    std::vector<double> ascending(n), random(n), ties(n), zeros(n);
    std::vector<uint32_t> ids(n);
    for (size_t j = 0; j < n; ++j) {
      ascending[j] = 0.5 * static_cast<double>(j) - 3.0;
      random[j] = rng.NextDouble(-1.0, 1.0);
      ties[j] = static_cast<double>(rng.NextBounded(5));
      zeros[j] = j % 97 == 5 ? 1.0 : rng.NextBounded(2) == 0 ? 0.0 : -0.0;
      ids[j] = static_cast<uint32_t>(3 * (n - j));
    }
    const std::vector<double> descending(ascending.rbegin(),
                                         ascending.rend());
    const std::vector<double> constant(n, 0.25);
    const std::pair<const char*, const std::vector<double>*> orders[] = {
        {"ascending", &ascending}, {"descending", &descending},
        {"constant", &constant},   {"random", &random},
        {"ties", &ties},           {"zeros", &zeros}};
    for (const auto& [name, scores] : orders) {
      for (size_t k : {size_t{1}, size_t{10}, size_t{16}, size_t{17},
                       size_t{64}, n - 1, n, n + 1}) {
        const std::vector<uint32_t>* lists[] = {nullptr, &ids};
        for (const std::vector<uint32_t>* list : lists) {
          const auto got = SelectTopK(
              scores->data(), list != nullptr ? list->data() : nullptr, n, k);
          EXPECT_TRUE(SameBits(got, SortedTopK(*scores, list, k)))
              << name << " n=" << n << " k=" << k
              << " ids=" << (list != nullptr);
        }
      }
    }
  }
}

TEST(SelectTopKTest, NaNScoresTakeTheFullPass) {
  // A NaN among the scores the pre-pass reads sends them all to the full
  // pass, which admits a NaN only among its first k; one past them meets
  // a full heap that rejects it. Either way the answer is the full
  // pass's, bit for bit, and nothing crashes.
  Rng rng(29);
  std::vector<double> scores(3000);
  for (double& s : scores) s = rng.NextDouble(-1.0, 1.0);
  for (size_t at : {size_t{0}, size_t{5}, size_t{500}, size_t{2500}}) {
    std::vector<double> with_nan = scores;
    with_nan[at] = std::numeric_limits<double>::quiet_NaN();
    for (size_t k : {size_t{1}, size_t{10}, size_t{16}, size_t{40}}) {
      EXPECT_TRUE(SameBits(
          SelectTopK(with_nan.data(), nullptr, with_nan.size(), k),
          FullPassTopK(with_nan, k)))
          << "NaN at " << at << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace dismastd
