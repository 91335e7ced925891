#include "ann/lsh_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
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

/// hamming_shortlist's cut by brute force over codes weighted by their
/// rows (offsets[g + 1] - offsets[g]): the smallest c whose codes at or
/// below it hold n rows, the rows below c, and the codes below and at c.
struct ReferenceCut {
  uint32_t cutoff = 0;
  size_t rows_below = 0;
  std::vector<uint32_t> below;
  std::vector<uint32_t> at;
};

ReferenceCut ReferenceCodeCut(const std::vector<uint32_t>& dists,
                              const std::vector<uint32_t>& offsets,
                              size_t n) {
  ReferenceCut ref;
  if (n == 0) return ref;
  for (uint32_t c = 0;; ++c) {
    size_t at_or_below = 0;
    size_t below = 0;
    for (size_t g = 0; g < dists.size(); ++g) {
      const size_t rows = offsets[g + 1] - offsets[g];
      if (dists[g] <= c) at_or_below += rows;
      if (dists[g] < c) below += rows;
    }
    if (at_or_below >= n) {
      ref.cutoff = c;
      ref.rows_below = below;
      break;
    }
  }
  for (uint32_t g = 0; g < dists.size(); ++g) {
    if (dists[g] < ref.cutoff) ref.below.push_back(g);
    if (dists[g] == ref.cutoff) ref.at.push_back(g);
  }
  return ref;
}

/// Every row's code, row-major: the per-row view of a grouped mode.
std::vector<uint64_t> RowCodes(const LshModeIndex& mode) {
  std::vector<uint64_t> codes;
  for (size_t r = 0; r < mode.num_rows; ++r) {
    codes.insert(codes.end(), mode.RowCode(r), mode.RowCode(r) + mode.words);
  }
  return codes;
}

const kernels::Backend kAllBackends[] = {kernels::Backend::kScalar,
                                         kernels::Backend::kAvx2,
                                         kernels::Backend::kAvx512};

TEST(HammingKernelTest, AllBackendsMatchReferenceExactly) {
  Rng rng(11);
  // 1, 2 and 4 words take the whole-block scan bodies; 3 and 9 the
  // per-code chunked one (9 = a full 8-word chunk plus a masked tail).
  // Code counts cover empty, partial, exact and one-past blocks of 4, 8,
  // 16 and 32 codes. Each code holds one row (the unweighted count), 1-4
  // rows, or 1 row but one code that holds most rows; selections take
  // none, one, a third and all of the rows.
  for (size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{9}}) {
    for (size_t num_codes : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                             size_t{9}, size_t{33}, size_t{1001}}) {
      std::vector<uint64_t> codes(num_codes * words);
      std::vector<uint64_t> query(words);
      for (auto& c : codes) c = rng.NextU64();
      for (auto& q : query) q = rng.NextU64();
      const std::vector<uint32_t> expected =
          ReferenceHamming(codes, words, query);
      for (const char* weighting : {"one", "1-4", "heavy"}) {
        std::vector<uint32_t> offsets(num_codes + 1, 0);
        for (size_t g = 0; g < num_codes; ++g) {
          uint32_t rows = 1;
          if (weighting[0] == '1') {
            rows += static_cast<uint32_t>(rng.NextBounded(4));
          } else if (weighting[0] == 'h' && g == num_codes / 2) {
            rows = static_cast<uint32_t>(10 * num_codes);
          }
          offsets[g + 1] = offsets[g] + rows;
        }
        const size_t rows = offsets.back();
        std::vector<uint32_t> multi;
        for (uint32_t g = 0; g < num_codes; ++g) {
          if (offsets[g + 1] - offsets[g] > 1) multi.push_back(g);
        }
        const kernels::CodeGroups groups{codes.data(),   num_codes,
                                         words,          offsets.data(),
                                         multi.data(),   multi.size()};
        for (size_t n :
             {size_t{0}, std::min<size_t>(1, rows), rows / 3, rows}) {
          const ReferenceCut ref = ReferenceCodeCut(expected, offsets, n);
          for (kernels::Backend backend : kAllBackends) {
            if (!kernels::Supported(backend)) continue;
            // One sentinel past each output (past the lists' slot of
            // slack): a body must not store beyond.
            std::vector<uint16_t> dists(num_codes + 1, 0xBEEFu);
            std::vector<uint32_t> below(num_codes + 2, 0xDEADBEEFu);
            std::vector<uint32_t> at(num_codes + 2, 0xDEADBEEFu);
            const kernels::ShortlistCut cut =
                kernels::Get(backend).hamming_shortlist(
                    groups, query.data(), n, dists.data(), below.data(),
                    at.data());
            const std::string where =
                std::string(kernels::BackendName(backend)) +
                " words=" + std::to_string(words) +
                " codes=" + std::to_string(num_codes) + " rows=" + weighting +
                " n=" + std::to_string(n);
            EXPECT_EQ(dists.back(), 0xBEEFu) << where;
            dists.pop_back();
            EXPECT_EQ(std::vector<uint32_t>(dists.begin(), dists.end()),
                      expected)
                << where;
            EXPECT_EQ(cut.cutoff, ref.cutoff) << where;
            EXPECT_EQ(cut.rows_below, ref.rows_below) << where;
            ASSERT_EQ(cut.num_below, ref.below.size()) << where;
            ASSERT_EQ(cut.num_at, ref.at.size()) << where;
            EXPECT_EQ(below.back(), 0xDEADBEEFu) << where;
            EXPECT_EQ(at.back(), 0xDEADBEEFu) << where;
            below.resize(cut.num_below);
            at.resize(cut.num_at);
            EXPECT_EQ(below, ref.below) << where;
            EXPECT_EQ(at, ref.at) << where;
          }
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
    EXPECT_EQ(RowCodes(a->mode(m)), RowCodes(b->mode(m))) << "mode " << m;
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
      EXPECT_EQ(RowCodes(forced->mode(m)), RowCodes(a->mode(m)))
          << kernels::BackendName(backend) << " mode " << m;
    }
  }
  kernels::ResetDispatch();
}

/// A skewed-norm model, the shape of a Zipf-skewed stream's user factor:
/// mode 0's rows are a tenth heavy (random, norm ~1), the rest either
/// exactly zero (rows no event touched) or tiny. Tiny and zero rows
/// augment to nearly [0, M] and share one code.
KruskalTensor MakeSkewedFactors(uint64_t seed) {
  KruskalTensor factors = MakeFactors(seed, {3000, 40, 12});
  Matrix& users = factors.mutable_factor(0);
  Rng rng(seed + 100);
  for (size_t r = 0; r < users.rows(); ++r) {
    if (r % 10 == 3) continue;
    for (size_t c = 0; c < users.cols(); ++c) {
      users(r, c) = r % 3 == 0 ? 0.0 : 1e-4 * rng.NextDouble(-1.0, 1.0);
    }
  }
  return factors;
}

/// A model whose mode 0 has a middle tier: a tenth of the rows heavy, a
/// fifth 1/30 to 1/300 of them, the rest 1e-5 of them. The middle rows
/// spread over dozens of codes, tens of rows each, whose rows interleave.
KruskalTensor MakeTieredFactors(uint64_t seed) {
  KruskalTensor factors = MakeFactors(seed, {3000, 40, 12});
  Matrix& users = factors.mutable_factor(0);
  Rng rng(seed + 100);
  for (size_t r = 0; r < users.rows(); ++r) {
    const double tier = rng.NextDouble();
    const double scale =
        tier < 0.1 ? 1.0
                   : tier < 0.3 ? std::pow(10.0, -1.5 - rng.NextDouble())
                                : 1e-5;
    for (size_t c = 0; c < users.cols(); ++c) users(r, c) *= scale;
  }
  return factors;
}

/// Shortlist's rows, sorted: the set, listed as ReferenceSelect lists it.
std::vector<uint32_t> SortedShortlist(const AnnIndex& index, size_t mode,
                                      const double* weights, size_t n) {
  std::vector<uint32_t> rows(n);
  rows.resize(index.Shortlist(mode, weights, n, rows.data()));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The query code of `weights` under `index`'s hyperplanes.
std::vector<uint64_t> QueryCode(const AnnIndex& index,
                                const std::vector<double>& weights) {
  std::vector<double> aug(weights);
  aug.push_back(0.0);
  std::vector<uint64_t> qcode(index.planes().words(), 0);
  index.planes().Encode(aug.data(), qcode.data());
  return qcode;
}

/// The rows of a mode's largest code group.
size_t LargestGroup(const LshModeIndex& mode) {
  size_t largest = 0;
  for (size_t g = 0; g < mode.num_codes; ++g) {
    largest = std::max<size_t>(
        largest, mode.group_start[g + 1] - mode.group_start[g]);
  }
  return largest;
}

TEST(LshIndexTest, ShortlistIsExactCountingSelect) {
  const size_t mode = 0;
  struct Case {
    std::shared_ptr<const AnnIndex> index;
    std::vector<double> weights;
    size_t want;
    std::vector<uint32_t> expected;
  };
  std::vector<Case> cases;
  // A random model, whose codes are nearly all distinct, and a
  // skewed-norm one in which most rows share one code.
  for (const bool skewed : {false, true}) {
    const KruskalTensor factors =
        skewed ? MakeSkewedFactors(2) : MakeFactors(2);
    const size_t rows = factors.factor(mode).rows();
    Rng rng(5);
    for (size_t bits : {size_t{64}, size_t{96}, size_t{128}, size_t{256}}) {
      LshOptions options;
      options.bits = bits;
      auto index = AnnIndex::Build(factors, options, nullptr, nullptr);
      const LshModeIndex& m = index->mode(mode);
      const std::string where =
          std::string(skewed ? "skewed" : "random") + " bits=" +
          std::to_string(bits);
      const std::vector<uint64_t> row_codes = RowCodes(m);
      // On the skewed model, rows must lie on both sides of the largest
      // group's distance; redraw the query until they do.
      size_t largest = LargestGroup(m);
      size_t big = 0;
      while (m.group_start[big + 1] - m.group_start[big] != largest) ++big;
      std::vector<double> weights(factors.rank());
      std::vector<uint32_t> dists;
      std::vector<uint32_t> sorted;
      size_t below = 0;
      size_t through = 0;
      for (int draw = 0; draw < 100; ++draw) {
        for (auto& w : weights) w = rng.NextDouble(-1.0, 1.0);
        dists = ReferenceHamming(row_codes, m.words, QueryCode(*index, weights));
        sorted = dists;
        std::sort(sorted.begin(), sorted.end());
        const uint32_t d_big = dists[m.group_rows[m.group_start[big]]];
        below = static_cast<size_t>(
            std::lower_bound(sorted.begin(), sorted.end(), d_big) -
            sorted.begin());
        through = static_cast<size_t>(
            std::upper_bound(sorted.begin(), sorted.end(), d_big) -
            sorted.begin());
        if (!skewed || (below > 1 && through < rows)) break;
      }
      // A size that cuts through a tie: one past the rows below the
      // smallest distance shared by at least two rows.
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
      ASSERT_GT(tie_cut, 0u) << where;
      std::vector<size_t> wants = {1, tie_cut, rows - 1, rows};
      if (skewed) {
        // Cuts below, inside and past the largest group.
        ASSERT_GT(largest, rows / 2) << where;
        ASSERT_GT(below, 1u) << where;
        ASSERT_LT(through, rows) << where;
        wants.insert(wants.end(), {below / 2, below, below + 1,
                                   below + largest / 2, through,
                                   through + (rows - through) / 2});
      }
      for (size_t want : wants) {
        cases.push_back({index, weights, want, ReferenceSelect(dists, want)});
      }
    }
  }
  // A tiered model, with sizes whose trim at c keeps rows of at least 3
  // codes at c whose rows interleave (a code's kept rows do not form one
  // run among them), and drops others: the rows at c are gathered code
  // by code, then selected.
  for (size_t bits : {size_t{64}, size_t{128}}) {
    const KruskalTensor factors = MakeTieredFactors(2);
    LshOptions options;
    options.bits = bits;
    auto index = AnnIndex::Build(factors, options, nullptr, nullptr);
    const LshModeIndex& m = index->mode(mode);
    const std::vector<uint64_t> row_codes = RowCodes(m);
    Rng rng(9);
    size_t found = 0;
    for (int draw = 0; draw < 200 && found < 3; ++draw) {
      std::vector<double> weights(factors.rank());
      for (auto& w : weights) w = rng.NextDouble(-1.0, 1.0);
      const std::vector<uint64_t> qcode = QueryCode(*index, weights);
      const std::vector<uint32_t> code_dists =
          ReferenceHamming(m.codes, m.words, qcode);
      std::vector<uint32_t> distances(code_dists);
      std::sort(distances.begin(), distances.end());
      distances.erase(std::unique(distances.begin(), distances.end()),
                      distances.end());
      size_t rows_below = 0;
      for (uint32_t c : distances) {
        // Every row at c with its code, in row order.
        std::vector<std::pair<uint32_t, uint32_t>> at;
        for (uint32_t g = 0; g < m.num_codes; ++g) {
          if (code_dists[g] != c) continue;
          for (uint32_t k = m.group_start[g]; k < m.group_start[g + 1]; ++k) {
            at.push_back({m.group_rows[k], g});
          }
        }
        std::sort(at.begin(), at.end());
        const size_t ties = at.size() / 2;
        std::set<uint32_t> kept_codes;
        size_t runs = 0;
        for (size_t i = 0; i < ties; ++i) {
          kept_codes.insert(at[i].second);
          runs += i == 0 || at[i].second != at[i - 1].second;
        }
        if (kept_codes.size() >= 3 && runs > kept_codes.size()) {
          const size_t want = rows_below + ties;
          cases.push_back(
              {index, weights, want,
               ReferenceSelect(ReferenceHamming(row_codes, m.words, qcode),
                               want)});
          ++found;
          break;
        }
        rows_below += at.size();
      }
    }
    ASSERT_GT(found, 0u) << "bits=" << bits;
  }

  // Every backend, each from two threads at once: the per-thread scratch
  // must not leak between concurrent queries (run under TSan).
  for (kernels::Backend backend : kAllBackends) {
    if (!kernels::Supported(backend)) continue;
    ASSERT_TRUE(kernels::ForceBackend(backend).ok());
    std::atomic<int> mismatches{0};
    auto run = [&] {
      for (const Case& c : cases) {
        if (SortedShortlist(*c.index, mode, c.weights.data(), c.want) !=
            c.expected) {
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

TEST(LshIndexTest, GroupsPartitionRowsInFirstRowOrder) {
  // Fresh builds of both models, and a patched build that reuses most
  // rows' codes from the previous index.
  const KruskalTensor skewed = MakeSkewedFactors(3);
  KruskalTensor touched = skewed;
  for (size_t r = 0; r < 40; ++r) {
    touched.mutable_factor(0)(r * 7, 0) = 1e-3 * static_cast<double>(r);
  }
  LshOptions options;
  options.bits = 128;
  const auto base = AnnIndex::Build(skewed, options, nullptr, nullptr);
  const auto patched =
      AnnIndex::Build(touched, options, base.get(), &skewed);
  ASSERT_GT(patched->reused_rows(), 0u);
  const KruskalTensor random = MakeFactors(3);
  const std::pair<std::shared_ptr<const AnnIndex>, const KruskalTensor*>
      built[] = {{AnnIndex::Build(random, options, nullptr, nullptr), &random},
                 {base, &skewed},
                 {patched, &touched}};
  for (const auto& [index, model] : built) {
    const KruskalTensor& factors = *model;
    for (size_t mi = 0; mi < index->num_modes(); ++mi) {
      const LshModeIndex& m = index->mode(mi);
      const Matrix& f = factors.factor(mi);
      const std::string where = "mode " + std::to_string(mi);
      ASSERT_EQ(m.num_rows, f.rows()) << where;
      ASSERT_EQ(m.codes.size(), m.num_codes * m.words) << where;
      ASSERT_EQ(m.group_start.size(), m.num_codes + 1) << where;
      ASSERT_EQ(m.group_start.front(), 0u) << where;
      ASSERT_EQ(m.group_start.back(), m.num_rows) << where;
      ASSERT_EQ(m.group_rows.size(), m.num_rows) << where;
      // The groups partition the rows, each ascending and non-empty, in
      // the order of their first rows.
      std::vector<int> seen(m.num_rows, 0);
      for (size_t g = 0; g < m.num_codes; ++g) {
        ASSERT_LT(m.group_start[g], m.group_start[g + 1]) << where;
        for (uint32_t k = m.group_start[g]; k < m.group_start[g + 1]; ++k) {
          const uint32_t r = m.group_rows[k];
          ++seen[r];
          EXPECT_EQ(m.row_code[r], g) << where;
          if (k > m.group_start[g]) {
            EXPECT_LT(m.group_rows[k - 1], r) << where;
          }
        }
        if (g > 0) {
          EXPECT_LT(m.group_rows[m.group_start[g - 1]],
                    m.group_rows[m.group_start[g]])
              << where;
        }
      }
      EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                static_cast<long>(m.num_rows))
          << where;
      // multi_codes lists, ascending, exactly the codes with two or more
      // rows.
      std::vector<uint32_t> multi;
      for (uint32_t g = 0; g < m.num_codes; ++g) {
        if (m.group_start[g + 1] - m.group_start[g] > 1) multi.push_back(g);
      }
      EXPECT_EQ(m.multi_codes, multi) << where;
      // The codes are pairwise distinct.
      std::set<std::vector<uint64_t>> distinct;
      for (size_t g = 0; g < m.num_codes; ++g) {
        distinct.insert(std::vector<uint64_t>(m.Code(g), m.Code(g) + m.words));
      }
      EXPECT_EQ(distinct.size(), m.num_codes) << where;
      // Every row's code is its own encoding under the mode's
      // augmentation norm.
      const size_t rank = f.cols();
      std::vector<double> aug(rank + 1);
      std::vector<uint64_t> code(m.words);
      for (size_t r = 0; r < m.num_rows; ++r) {
        std::copy(f.RowPtr(r), f.RowPtr(r) + rank, aug.begin());
        const double rest =
            m.aug_norm * m.aug_norm -
            kernels::Get().dot_strided(f.RowPtr(r), 1, f.RowPtr(r), 1, rank);
        aug[rank] = rest > 0.0 ? std::sqrt(rest) : 0.0;
        index->planes().Encode(aug.data(), code.data());
        ASSERT_TRUE(std::equal(code.begin(), code.end(), m.RowCode(r)))
            << where << " row " << r;
      }
    }
  }
  // The skewed user mode collapses onto few codes; the random one does not.
  EXPECT_LT(base->mode(0).num_codes * 10, base->mode(0).num_rows);
  EXPECT_GT(LargestGroup(base->mode(0)), base->mode(0).num_rows / 2);
}

TEST(LshIndexTest, ShortlistClampsAndHandlesEmptyMode) {
  std::vector<Matrix> factors;
  Rng rng(3);
  factors.push_back(Matrix::Random(20, 4, rng));
  factors.push_back(Matrix(0, 4));
  const KruskalTensor model(std::move(factors));
  const auto index = AnnIndex::Build(model, LshOptions{}, nullptr, nullptr);

  std::vector<double> weights(4, 0.5);
  std::vector<uint32_t> rows(1000);
  ASSERT_EQ(index->Shortlist(0, weights.data(), 1000, rows.data()), 20u);
  for (uint32_t r = 0; r < 20; ++r) EXPECT_EQ(rows[r], r);
  EXPECT_EQ(index->Shortlist(0, weights.data(), 0, rows.data()), 0u);
  EXPECT_EQ(index->Shortlist(1, weights.data(), 5, rows.data()), 0u);
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
    EXPECT_EQ(RowCodes(patched->mode(m)), RowCodes(fresh->mode(m)))
        << "mode " << m;
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
  EXPECT_EQ(RowCodes(patched->mode(0)), RowCodes(fresh->mode(0)));
}

TEST(LshIndexTest, AnnRecallIsHighOnSkinnyFactors) {
  using serve::ServableModel;
  const auto model = ServableModel::Build(MakeFactors(8, {2000, 30, 10}, 8),
                                          1, 0);
  const size_t k = 10;
  size_t hits = 0, total = 0;
  for (uint64_t anchor1 = 0; anchor1 < 20; ++anchor1) {
    const std::vector<uint64_t> anchor = {0, anchor1, anchor1 % 10};
    const auto exact = model->TopK(0, anchor, k);
    const auto ann = model->TopKAnn(0, anchor, k, /*probes=*/16);
    std::set<uint64_t> exact_ids;
    for (const auto& item : exact.items) exact_ids.insert(item.index);
    for (const auto& item : ann.items) hits += exact_ids.count(item.index);
    total += k;
    // The shortlist scanned far fewer rows than the exact scan.
    EXPECT_LE(ann.rows_scored, 16 * k);
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
        if (!engine.TopKWithStats(query).ok()) {
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
