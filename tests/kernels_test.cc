// The compute-kernel determinism contract (kernels.h): every fp64 kernel is
// bit-exact against the scalar reference on every compiled-in backend the
// host supports, across shapes that exercise full vector widths, remainder
// lanes and the blocked-8 tail fold. Quantized kernels are backend-invariant
// and land within the documented error model of quantized.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "kernels/kernels.h"
#include "kernels/quantized.h"
#include "la/matrix.h"
#include "test_util.h"

namespace dismastd {
namespace kernels {
namespace {

// Full vector widths, every remainder lane, and 8k +/- 1 around one and two
// blocks for both the 4-lane (AVX2 halves) and 8-lane blocking.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25,
                           31, 32, 33, 63, 64, 65};

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends;
  for (size_t b = 0; b < kNumBackends; ++b) {
    const auto backend = static_cast<Backend>(b);
    if (Supported(backend)) backends.push_back(backend);
  }
  return backends;
}

std::vector<double> RandomVector(size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.NextGaussian();
  return v;
}

TEST(KernelsDispatchTest, ScalarAlwaysSupportedAndTablesSelfIdentify) {
  ASSERT_TRUE(Supported(Backend::kScalar));
  for (Backend backend : SupportedBackends()) {
    EXPECT_EQ(Get(backend).backend, backend) << BackendName(backend);
  }
  EXPECT_TRUE(Supported(BestSupported()));
}

TEST(KernelsDispatchTest, ParseBackendRoundTripsAndRejectsGarbage) {
  for (Backend backend :
       {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    const Result<Backend> parsed = ParseBackend(BackendName(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), backend);
  }
  EXPECT_FALSE(ParseBackend("sse9").ok());
  EXPECT_FALSE(ParseBackend("").ok());
}

TEST(KernelsDispatchTest, ForceBackendRoutesGetAndResetRestoresAuto) {
  ASSERT_TRUE(ForceBackend(Backend::kScalar).ok());
  EXPECT_EQ(Dispatched(), Backend::kScalar);
  EXPECT_EQ(Get().backend, Backend::kScalar);
  ResetDispatch();
  // With DISMASTD_KERNEL unset in the test environment this is the CPUID
  // best; with it set, dispatch still resolves to something supported.
  EXPECT_TRUE(Supported(Dispatched()));
  EXPECT_FALSE(DispatchExplanation().empty());
}

TEST(KernelsParityTest, HadamardCombineBitExactIncludingEmptyProduct) {
  Rng rng(2);
  for (size_t rank : kLengths) {
    for (size_t num_rows : {0u, 1u, 2u, 4u}) {
      std::vector<std::vector<double>> rows_storage;
      std::vector<const double*> rows;
      for (size_t m = 0; m < num_rows; ++m) {
        rows_storage.push_back(RandomVector(rank, rng));
        rows.push_back(rows_storage.back().data());
      }
      std::vector<double> want(rank);
      Get(Backend::kScalar)
          .hadamard_combine(rows.data(), num_rows, rank, want.data());
      if (num_rows == 0) {
        for (double w : want) ASSERT_EQ(w, 1.0);
      }
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got(rank);
        Get(backend).hadamard_combine(rows.data(), num_rows, rank,
                                      got.data());
        for (size_t f = 0; f < rank; ++f) {
          ASSERT_EQ(want[f], got[f])
              << BackendName(backend) << " rank=" << rank
              << " num_rows=" << num_rows << " f=" << f;
        }
      }
    }
  }
}

TEST(KernelsParityTest, DotStridedBitExactAcrossStridesAndLengths) {
  Rng rng(4);
  const size_t strides[] = {0, 1, 3, 17};
  for (size_t n : kLengths) {
    for (size_t incx : strides) {
      for (size_t incy : strides) {
        const std::vector<double> x =
            RandomVector(incx == 0 ? 1 : n * incx, rng);
        const std::vector<double> y =
            RandomVector(incy == 0 ? 1 : n * incy, rng);
        const double want = Get(Backend::kScalar)
                                .dot_strided(x.data(), incx, y.data(),
                                             incy, n);
        for (Backend backend : SupportedBackends()) {
          const double got =
              Get(backend).dot_strided(x.data(), incx, y.data(), incy, n);
          ASSERT_EQ(want, got)
              << BackendName(backend) << " n=" << n << " incx=" << incx
              << " incy=" << incy;
        }
      }
    }
  }
}

TEST(KernelsParityTest, TopKScoreBlockMatchesDotStridedBitExactly) {
  Rng rng(5);
  for (size_t rank : kLengths) {
    const size_t num_rows = 37;  // prime, exercises every row offset
    const std::vector<double> rows = RandomVector(num_rows * rank, rng);
    const std::vector<double> weights = RandomVector(rank, rng);
    std::vector<double> want(num_rows);
    for (size_t j = 0; j < num_rows; ++j) {
      want[j] = Get(Backend::kScalar)
                    .dot_strided(rows.data() + j * rank, 1, weights.data(),
                                 1, rank);
    }
    for (Backend backend : SupportedBackends()) {
      std::vector<double> got(num_rows);
      Get(backend).topk_score_block(rows.data(), num_rows, rank,
                                    weights.data(), got.data());
      for (size_t j = 0; j < num_rows; ++j) {
        ASSERT_EQ(want[j], got[j])
            << BackendName(backend) << " rank=" << rank << " j=" << j;
      }
    }
    // The Eq. 5 numerator identity: the strided dot of x down column c of a
    // row-major rank x rank matrix M is block score c of x against Mᵀ.
    const std::vector<double> m = RandomVector(rank * rank, rng);
    std::vector<double> mt(rank * rank);
    for (size_t i = 0; i < rank; ++i) {
      for (size_t c = 0; c < rank; ++c) mt[c * rank + i] = m[i * rank + c];
    }
    for (Backend backend : SupportedBackends()) {
      const KernelTable& kern = Get(backend);
      std::vector<double> got(rank);
      kern.topk_score_block(mt.data(), rank, rank, weights.data(), got.data());
      for (size_t c = 0; c < rank; ++c) {
        ASSERT_EQ(kern.dot_strided(weights.data(), 1, m.data() + c, rank, rank),
                  got[c])
            << BackendName(backend) << " rank=" << rank << " c=" << c;
      }
    }
  }
}

// The row-update shapes: ranks around the 8-wide vectors and masked tails,
// row counts around the 8-row lane block and the 32-row, four-block group
// (none, a lone padded row, partial, exact and overflowing blocks and
// groups).
const size_t kRowRanks[] = {1, 2, 7, 8, 9, 10, 16, 17};
const size_t kRowCounts[] = {0, 1, 7, 8, 9, 31, 32, 33, 65};

/// Rows of a row pool; lists index it unsorted and with repeats.
constexpr size_t kPoolRows = 23;

using test::Bits;

/// A pool of rows to index into: Gaussian, except that row 0 is all -0.0,
/// so a kernel that starts a sum from its first product instead of from
/// 0 + x·y, or drops a -0.0 term, shows in the sign bit.
Matrix RowPool(size_t rank, Rng& rng) {
  Matrix pool = Matrix::RandomGaussian(kPoolRows, rank, rng);
  for (size_t i = 0; i < rank; ++i) pool(0, i) = -0.0;
  return pool;
}

/// `count` unsorted pool row indices that repeat: the -0.0 row first, then
/// random rows, with the first index listed again at the end.
std::vector<uint64_t> RowList(size_t count, Rng& rng) {
  std::vector<uint64_t> rows(count);
  for (size_t k = 1; k < count; ++k) rows[k] = rng.NextBounded(kPoolRows);
  if (count > 1) rows[count - 1] = rows[0];
  return rows;
}

/// The Cholesky factors the solve tests use: a random SPD system's, and
/// the identity's. Under the identity the all -0.0 row's result keeps a
/// -0.0 exactly when its right-hand side was -0.0, so a numerator that
/// starts from its first product cannot hide behind the substitution.
std::vector<Matrix> SolveLowers(size_t rank, Rng& rng) {
  const Matrix basis = Matrix::Random(rank + 2, rank, rng);
  Matrix spd(rank, rank);
  for (size_t i = 0; i < rank; ++i) {
    for (size_t j = 0; j < rank; ++j) {
      for (size_t r = 0; r < basis.rows(); ++r) {
        spd(i, j) += basis(r, i) * basis(r, j);
      }
    }
    spd(i, i) += 0.1;
  }
  Matrix lower(rank, rank);
  for (size_t j = 0; j < rank; ++j) {
    double diag = spd(j, j);
    for (size_t k = 0; k < j; ++k) diag -= lower(j, k) * lower(j, k);
    lower(j, j) = std::sqrt(diag);
    for (size_t i = j + 1; i < rank; ++i) {
      double sum = spd(i, j);
      for (size_t k = 0; k < j; ++k) sum -= lower(i, k) * lower(j, k);
      lower(i, j) = sum / lower(j, j);
    }
  }
  return {lower, Matrix::Identity(rank)};
}

/// Runs solve_rows over `rows` on every supported backend and checks each
/// listed row of the output against row k of `want` bit for bit.
void ExpectSolveRowsMatch(const Matrix& lower, const Matrix& rhs,
                          const Matrix* prev, const Matrix& weights_t,
                          double mu, const std::vector<uint64_t>& rows,
                          const Matrix& want, const std::string& what) {
  const size_t rank = lower.rows();
  for (Backend backend : SupportedBackends()) {
    Matrix out(kPoolRows, rank);
    Get(backend).solve_rows(lower.data(), rank, rhs.data(),
                            prev != nullptr ? prev->data() : nullptr,
                            weights_t.data(), mu, rows.data(), rows.size(),
                            out.data());
    for (size_t k = 0; k < rows.size(); ++k) {
      for (size_t i = 0; i < rank; ++i) {
        ASSERT_EQ(Bits(out(rows[k], i)), Bits(want(k, i)))
            << BackendName(backend) << " " << what << " rank=" << rank
            << " rows=" << rows.size() << " row=" << k << " i=" << i;
      }
    }
  }
}

TEST(KernelsRowListTest, SolveRowsMatchPerRowOracle) {
  for (size_t rank : kRowRanks) {
    Rng rng(10 + rank);
    const std::vector<Matrix> lowers = SolveLowers(rank, rng);
    const Matrix pool = RowPool(rank, rng);
    for (size_t count : kRowCounts) {
      const std::vector<uint64_t> rows = RowList(count, rng);
      Matrix rhs(count, rank);
      for (size_t k = 0; k < count; ++k) {
        std::copy_n(pool.RowPtr(rows[k]), rank, rhs.RowPtr(k));
      }
      for (const Matrix& lower : lowers) {
        ExpectSolveRowsMatch(lower, pool, nullptr, Matrix(), 0.0, rows,
                             test::SolveRowByRow(lower, rhs), "solve");
      }
    }
  }
}

TEST(KernelsRowListTest, SolveRowsWithPrevMatchScaledTopKScorePlusRhs) {
  for (size_t rank : kRowRanks) {
    Rng rng(20 + rank);
    const std::vector<Matrix> lowers = SolveLowers(rank, rng);
    const Matrix prev = RowPool(rank, rng);
    // Â rows; the -0.0 pool row gets a -0.0 Â row.
    const Matrix mttkrp = RowPool(rank, rng);
    Matrix weights_t = Matrix::RandomGaussian(rank, rank, rng);
    // Positive weights make every product of score 0 with the -0.0 row a
    // -0.0: only a 0 + x·y start turns the partials, hence the sum, to +0.0.
    for (size_t i = 0; i < rank; ++i) {
      weights_t(0, i) = std::abs(weights_t(0, i));
    }
    const double mu = 0.8;
    for (size_t count : kRowCounts) {
      const std::vector<uint64_t> rows = RowList(count, rng);
      // The oracle's right-hand sides: μ·topk_score_block + Â per row.
      Matrix numerators(count, rank);
      std::vector<double> scores(rank);
      for (size_t k = 0; k < count; ++k) {
        Get(Backend::kScalar)
            .topk_score_block(weights_t.data(), rank, rank,
                              prev.RowPtr(rows[k]), scores.data());
        for (size_t c = 0; c < rank; ++c) {
          numerators(k, c) = mu * scores[c] + mttkrp(rows[k], c);
        }
      }
      for (const Matrix& lower : lowers) {
        ExpectSolveRowsMatch(lower, mttkrp, &prev, weights_t, mu, rows,
                             test::SolveRowByRow(lower, numerators),
                             "numerator+solve");
      }
    }
  }
}

TEST(KernelsRowListTest, MttkrpCooMatchesPerEntryOracle) {
  for (size_t order : {1u, 2u, 3u, 4u, 6u}) {
    for (size_t rank : kLengths) {
      Rng rng(40 + order * 100 + rank);
      std::vector<Matrix> factors;
      std::vector<const double*> factor_data;
      for (size_t m = 0; m < order; ++m) {
        factors.push_back(RowPool(rank, rng));
        factor_data.push_back(factors.back().data());
      }
      // 50 entries over the pools: output rows repeat, often in runs (half
      // the entries repeat the previous index tuple, as in a sorted list),
      // and row 0 multiplies in -0.0 factors.
      constexpr size_t kNnz = 50;
      std::vector<uint64_t> indices(kNnz * order);
      std::vector<double> values(kNnz);
      for (size_t e = 0; e < kNnz; ++e) {
        const bool run = e > 0 && rng.NextBounded(2) == 0;
        for (size_t m = 0; m < order; ++m) {
          indices[e * order + m] = run ? indices[(e - 1) * order + m]
                                       : rng.NextBounded(kPoolRows);
        }
        values[e] = rng.NextGaussian();
      }
      Matrix seed = Matrix::RandomGaussian(kPoolRows, rank, rng);
      seed(0, 0) = -0.0;
      for (size_t mode = 0; mode < order; ++mode) {
        // The oracle: per entry, the value times the non-target rows in
        // ascending mode order, one add into the output row.
        Matrix want = seed;
        for (size_t e = 0; e < kNnz; ++e) {
          const uint64_t* idx = indices.data() + e * order;
          for (size_t f = 0; f < rank; ++f) {
            double v = values[e];
            for (size_t m = 0; m < order; ++m) {
              if (m != mode) v *= factors[m](idx[m], f);
            }
            want(idx[mode], f) += v;
          }
        }
        for (Backend backend : SupportedBackends()) {
          Matrix got = seed;
          Get(backend).mttkrp_coo(indices.data(), values.data(), kNnz, order,
                                  mode, factor_data.data(), rank, got.data());
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(Bits(got.data()[i]), Bits(want.data()[i]))
                << BackendName(backend) << " order=" << order
                << " rank=" << rank << " mode=" << mode << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(KernelsParityTest, GramRowsMatchPerRowRankOneOracle) {
  // The row-update ranks plus every remainder length, which reach the
  // third column and row tiles of the SIMD bodies.
  std::vector<size_t> ranks(std::begin(kRowRanks), std::end(kRowRanks));
  ranks.insert(ranks.end(), std::begin(kLengths), std::end(kLengths));
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  for (size_t rank : ranks) {
    Rng rng(30 + rank);
    const Matrix x = RowPool(rank, rng);
    const Matrix y = Matrix::RandomGaussian(kPoolRows, rank, rng);
    Matrix seed = Matrix::RandomGaussian(rank, rank, rng);
    seed(0, 0) = -0.0;
    for (size_t count : kRowCounts) {
      const std::vector<uint64_t> rows = RowList(count, rng);
      for (const Matrix* second : {&x, &y}) {
        // The oracle: one rank-1 update per listed row, in list order.
        Matrix want = seed;
        for (uint64_t r : rows) {
          for (size_t i = 0; i < rank; ++i) {
            for (size_t j = 0; j < rank; ++j) {
              want(i, j) += x(r, i) * (*second)(r, j);
            }
          }
        }
        for (Backend backend : SupportedBackends()) {
          Matrix got = seed;
          Get(backend).gram_rows(x.data(), second->data(), rows.data(),
                                 rows.size(), rank, got.data());
          for (size_t e = 0; e < rank * rank; ++e) {
            ASSERT_EQ(Bits(got.data()[e]), Bits(want.data()[e]))
                << BackendName(backend) << " rank=" << rank
                << " rows=" << count << " cross=" << (second == &y)
                << " e=" << e;
          }
        }
      }
    }
  }
}

TEST(KernelsQuantizedTest, Bf16RoundTripWithinDocumentedRelativeBound) {
  Rng rng(6);
  for (size_t n : kLengths) {
    const std::vector<double> src = RandomVector(n, rng);
    for (Backend backend : SupportedBackends()) {
      std::vector<Bf16> q(n);
      std::vector<double> back(n);
      Get(backend).f64_to_bf16(src.data(), n, q.data());
      Get(backend).bf16_to_f64(q.data(), n, back.data());
      for (size_t i = 0; i < n; ++i) {
        // 2^-8 on the float32 value; one half-ulp of float32 covers the
        // f64 -> f32 rounding en route.
        const double bound =
            std::abs(src[i]) * (0x1p-8 + 0x1p-24) + 1e-300;
        ASSERT_LE(std::abs(src[i] - back[i]), bound)
            << BackendName(backend) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelsQuantizedTest, Bf16AndInt8KernelsBackendInvariant) {
  Rng rng(7);
  for (size_t n : kLengths) {
    const std::vector<double> src = RandomVector(n, rng);
    const std::vector<double> weights = RandomVector(n, rng);
    std::vector<Bf16> q(n);
    Get(Backend::kScalar).f64_to_bf16(src.data(), n, q.data());
    std::vector<int8_t> i8(n);
    for (size_t i = 0; i < n; ++i) {
      i8[i] = static_cast<int8_t>(
          static_cast<int>(std::nearbyint(src[i] * 20.0)) % 127);
    }
    const double want_bf16 =
        Get(Backend::kScalar).bf16_dot(q.data(), weights.data(), n);
    const double want_i8 =
        Get(Backend::kScalar).i8_dot(i8.data(), weights.data(), n);
    for (Backend backend : SupportedBackends()) {
      std::vector<Bf16> q2(n);
      Get(backend).f64_to_bf16(src.data(), n, q2.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(q[i], q2[i]) << BackendName(backend) << " i=" << i;
      }
      ASSERT_EQ(want_bf16,
                Get(backend).bf16_dot(q.data(), weights.data(), n))
          << BackendName(backend) << " n=" << n;
      ASSERT_EQ(want_i8, Get(backend).i8_dot(i8.data(), weights.data(), n))
          << BackendName(backend) << " n=" << n;
    }
  }
}

TEST(KernelsQuantizedTest, QuantizeRecordsExactColumnErrorBounds) {
  Rng rng(8);
  const Matrix source = Matrix::RandomGaussian(41, 13, rng);

  const Bf16Matrix bf16 =
      QuantizeBf16(source.data(), source.rows(), source.cols());
  const std::vector<double> bf16_back = Dequantize(bf16);
  for (size_t c = 0; c < source.cols(); ++c) {
    double observed = 0.0;
    for (size_t r = 0; r < source.rows(); ++r) {
      observed = std::max(observed, std::abs(source.At(r, c) -
                                             bf16_back[r * source.cols() + c]));
    }
    // Recorded bound is the exact max, so equality must hold.
    EXPECT_EQ(observed, bf16.col_max_abs_err[c]) << "col " << c;
  }

  const Int8Matrix i8 =
      QuantizeInt8(source.data(), source.rows(), source.cols());
  const std::vector<double> i8_back = Dequantize(i8);
  for (size_t c = 0; c < source.cols(); ++c) {
    double observed = 0.0;
    for (size_t r = 0; r < source.rows(); ++r) {
      observed = std::max(observed, std::abs(source.At(r, c) -
                                             i8_back[r * source.cols() + c]));
    }
    EXPECT_EQ(observed, i8.col_max_abs_err[c]) << "col " << c;
    // And by construction the error is at most half a quantization step.
    EXPECT_LE(i8.col_max_abs_err[c], i8.col_scale[c] * 0.5 + 1e-300)
        << "col " << c;
  }
}

TEST(KernelsQuantizedTest, ZeroColumnsQuantizeExactlyInInt8) {
  Matrix source(9, 3);
  source.Fill(0.0);
  const Int8Matrix q = QuantizeInt8(source.data(), 9, 3);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(q.col_scale[c], 0.0);
    EXPECT_EQ(q.col_max_abs_err[c], 0.0);
  }
  const std::vector<double> back = Dequantize(q);
  ASSERT_EQ(back.size(), 27u);
  for (double v : back) EXPECT_EQ(v, 0.0);
}

TEST(KernelsQuantizedTest, QuantizedScanErrorWithinPerQueryBound) {
  Rng rng(9);
  const size_t rank = 12;
  const size_t num_rows = 101;
  const Matrix cand = Matrix::RandomGaussian(num_rows, rank, rng);
  const Bf16Matrix bf16 = QuantizeBf16(cand.data(), num_rows, rank);
  const Int8Matrix i8 = QuantizeInt8(cand.data(), num_rows, rank);
  const std::vector<double> weights = RandomVector(rank, rng);

  double bf16_bound = 0.0;
  double i8_bound = 0.0;
  std::vector<double> wscaled(rank);
  for (size_t f = 0; f < rank; ++f) {
    bf16_bound += std::abs(weights[f]) * bf16.col_max_abs_err[f];
    i8_bound += std::abs(weights[f]) * i8.col_max_abs_err[f];
    wscaled[f] = weights[f] * i8.col_scale[f];
  }

  for (Backend backend : SupportedBackends()) {
    const KernelTable& kern = Get(backend);
    std::vector<double> exact(num_rows);
    kern.topk_score_block(cand.RowPtr(0), num_rows, rank, weights.data(),
                          exact.data());
    std::vector<double> got(num_rows);
    kern.topk_score_block_bf16(bf16.RowPtr(0), num_rows, rank,
                               weights.data(), got.data());
    for (size_t j = 0; j < num_rows; ++j) {
      // A hair of slack: the bound is on exact arithmetic; the blocked
      // fp64 accumulation adds rounding of its own.
      ASSERT_LE(std::abs(exact[j] - got[j]), bf16_bound * (1.0 + 1e-12))
          << BackendName(backend) << " bf16 j=" << j;
    }
    kern.topk_score_block_i8(i8.RowPtr(0), num_rows, rank, wscaled.data(),
                             got.data());
    for (size_t j = 0; j < num_rows; ++j) {
      ASSERT_LE(std::abs(exact[j] - got[j]), i8_bound * (1.0 + 1e-12))
          << BackendName(backend) << " i8 j=" << j;
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace dismastd
