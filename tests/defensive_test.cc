// Defensive-programming tests: the library's internal invariants are
// enforced by DISMASTD_CHECK, which aborts on violation. These death tests
// pin down that misuse is caught loudly at the boundary instead of
// corrupting state silently.

#include <gtest/gtest.h>

#include "core/dismastd.h"
#include "la/ops.h"
#include "stream/snapshot.h"
#include "tensor/coo_tensor.h"
#include "tensor/mttkrp.h"

namespace dismastd {
namespace {

using DefensiveDeathTest = ::testing::Test;

TEST(DefensiveDeathTest, TensorRejectsOutOfBoundsIndex) {
  SparseTensor t({3, 3});
  EXPECT_DEATH(t.Add({5, 0}, 1.0), "CHECK");
}

TEST(DefensiveDeathTest, AddRawRejectsOutOfBoundsIndex) {
  // Copying a checked entry (AppendEntry) skips the check; appending a raw
  // index still makes it.
  SparseTensor t({3, 3});
  const uint64_t in_range[] = {2, 1};
  const uint64_t out_of_range[] = {1, 3};
  t.AddRaw(in_range, 1.0);
  EXPECT_DEATH(t.AddRaw(out_of_range, 1.0), "CHECK");
  SparseTensor copy({3, 3});
  copy.AppendEntry(t, 0);
  EXPECT_EQ(copy, t);
}

TEST(DefensiveDeathTest, TensorRejectsWrongArity) {
  SparseTensor t({3, 3});
  EXPECT_DEATH(t.Add({1, 1, 1}, 1.0), "CHECK");
}

TEST(DefensiveDeathTest, GrowDimsRefusesToShrink) {
  SparseTensor t({4, 4});
  EXPECT_DEATH(t.GrowDims({2, 4}), "CHECK");
}

TEST(DefensiveDeathTest, MatrixBoundsCheckedAccess) {
  const Matrix m(2, 2);
  EXPECT_DEATH((void)m.At(5, 0), "CHECK");
}

TEST(DefensiveDeathTest, MatMulShapeMismatch) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);  // inner dims disagree
  EXPECT_DEATH((void)MatMul(a, b), "CHECK");
}

TEST(DefensiveDeathTest, HadamardShapeMismatch) {
  const Matrix a(2, 3);
  const Matrix b(3, 2);
  EXPECT_DEATH((void)Hadamard(a, b), "CHECK");
}

TEST(DefensiveDeathTest, MttkrpWrongFactorCount) {
  SparseTensor t({2, 2, 2});
  const Matrix f(2, 3);
  EXPECT_DEATH((void)Mttkrp(t, {&f, &f}, 0), "CHECK");
}

TEST(DefensiveDeathTest, MttkrpUndersizedFactor) {
  SparseTensor t({4, 4});
  const Matrix small(2, 3);  // fewer rows than dim 0
  const Matrix ok(4, 3);
  EXPECT_DEATH((void)Mttkrp(t, {&small, &ok}, 1), "CHECK");
}

TEST(DefensiveDeathTest, RelativeComplementArityMismatch) {
  SparseTensor t({4, 4});
  EXPECT_DEATH((void)RelativeComplement(t, {2, 2, 2}), "CHECK");
}

TEST(DefensiveDeathTest, StreamingScheduleMustBeMonotone) {
  SparseTensor full({4, 4});
  EXPECT_DEATH(StreamingTensorSequence(full, {{3, 3}, {2, 4}}), "CHECK");
}

TEST(DefensiveDeathTest, StreamingScheduleWithinFullDims) {
  SparseTensor full({4, 4});
  EXPECT_DEATH(StreamingTensorSequence(full, {{5, 4}}), "CHECK");
}

TEST(DefensiveDeathTest, DistributedRejectsRankPrevMismatch) {
  // Previous factors with the wrong rank must be caught at the boundary.
  SparseTensor delta({4, 4});
  Rng rng(1);
  const KruskalTensor prev(
      {Matrix::Random(2, 3, rng), Matrix::Random(2, 3, rng)});
  DistributedOptions options;
  options.als.rank = 5;  // != prev rank 3
  options.num_workers = 2;
  EXPECT_DEATH(
      (void)DisMastdDecompose(delta, {2, 2}, prev, options), "CHECK");
}

}  // namespace
}  // namespace dismastd
