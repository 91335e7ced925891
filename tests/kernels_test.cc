// The compute-kernel determinism contract (kernels.h): every fp64 kernel is
// bit-exact against the scalar reference on every compiled-in backend the
// host supports, across shapes that exercise full vector widths, remainder
// lanes and the blocked-8 tail fold. Quantized kernels are backend-invariant
// and land within the documented error model of quantized.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "kernels/kernels.h"
#include "kernels/quantized.h"
#include "la/matrix.h"

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

TEST(KernelsParityTest, MttkrpRowBitExactAcrossBackends) {
  Rng rng(1);
  for (size_t rank : kLengths) {
    for (size_t num_rows : {1u, 2u, 3u, 5u}) {
      std::vector<std::vector<double>> rows_storage;
      std::vector<const double*> rows;
      for (size_t m = 0; m < num_rows; ++m) {
        rows_storage.push_back(RandomVector(rank, rng));
        rows.push_back(rows_storage.back().data());
      }
      const double value = rng.NextGaussian();
      const std::vector<double> seed = RandomVector(rank, rng);

      std::vector<double> want = seed;
      Get(Backend::kScalar)
          .mttkrp_row(value, rows.data(), num_rows, rank, want.data());
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got = seed;
        Get(backend).mttkrp_row(value, rows.data(), num_rows, rank,
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

TEST(KernelsParityTest, GramRankUpdateBitExactForGramAndCrossGram) {
  Rng rng(3);
  for (size_t rank : kLengths) {
    const std::vector<double> x = RandomVector(rank, rng);
    const std::vector<double> y = RandomVector(rank, rng);
    const std::vector<double> seed = RandomVector(rank * rank, rng);
    for (const double* second : {x.data(), y.data()}) {
      std::vector<double> want = seed;
      Get(Backend::kScalar)
          .gram_rank_update(x.data(), second, rank, want.data());
      for (Backend backend : SupportedBackends()) {
        std::vector<double> got = seed;
        Get(backend).gram_rank_update(x.data(), second, rank, got.data());
        for (size_t i = 0; i < rank * rank; ++i) {
          ASSERT_EQ(want[i], got[i])
              << BackendName(backend) << " rank=" << rank << " i=" << i;
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

  const Bf16Matrix bf16 = QuantizeBf16(source);
  const Matrix bf16_back = Dequantize(bf16);
  for (size_t c = 0; c < source.cols(); ++c) {
    double observed = 0.0;
    for (size_t r = 0; r < source.rows(); ++r) {
      observed = std::max(observed, std::abs(source.At(r, c) -
                                             bf16_back.At(r, c)));
    }
    // Recorded bound is the exact max, so equality must hold.
    EXPECT_EQ(observed, bf16.col_max_abs_err[c]) << "col " << c;
  }

  const Int8Matrix i8 = QuantizeInt8(source);
  const Matrix i8_back = Dequantize(i8);
  for (size_t c = 0; c < source.cols(); ++c) {
    double observed = 0.0;
    for (size_t r = 0; r < source.rows(); ++r) {
      observed =
          std::max(observed, std::abs(source.At(r, c) - i8_back.At(r, c)));
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
  const Int8Matrix q = QuantizeInt8(source);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(q.col_scale[c], 0.0);
    EXPECT_EQ(q.col_max_abs_err[c], 0.0);
  }
  const Matrix back = Dequantize(q);
  for (size_t r = 0; r < 9; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(back.At(r, c), 0.0);
  }
}

TEST(KernelsQuantizedTest, QuantizedScanErrorWithinPerQueryBound) {
  Rng rng(9);
  const size_t rank = 12;
  const size_t num_rows = 101;
  const Matrix cand = Matrix::RandomGaussian(num_rows, rank, rng);
  const Bf16Matrix bf16 = QuantizeBf16(cand);
  const Int8Matrix i8 = QuantizeInt8(cand);
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
