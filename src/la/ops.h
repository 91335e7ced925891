#ifndef DISMASTD_LA_OPS_H_
#define DISMASTD_LA_OPS_H_

#include <vector>

#include "la/matrix.h"

namespace dismastd {

/// C = A * B (dense matmul). Dimensions must agree.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Returns Aᵀ.
Matrix Transpose(const Matrix& a);

/// Gram-style product AᵀB where A and B share the row count. This is the
/// R x R "matrix product" DisMASTD all-reduces across workers (§IV-B3).
/// Each element adds its terms in ascending row order from +0.0. With equal
/// column counts this is one gram_rows call (bit-identical across
/// backends); otherwise a plain loop that skips zero entries of A, which
/// for finite inputs gives the same bits.
Matrix TransposeTimes(const Matrix& a, const Matrix& b);

/// Element-wise (Hadamard) product A * B; shapes must match.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// In-place Hadamard: a *= b.
void HadamardInPlace(Matrix& a, const Matrix& b);

/// Khatri-Rao (column-wise Kronecker) product A ⊙ B:
/// result is (rows(A)*rows(B)) x cols, row (i*rows(B)+j) = A[i,:] * B[j,:].
/// Column counts must match.
Matrix KhatriRao(const Matrix& a, const Matrix& b);

/// C = alpha*A + beta*B; shapes must match.
Matrix LinearCombine(double alpha, const Matrix& a, double beta,
                     const Matrix& b);

/// a += b; shapes must match.
void AddInPlace(Matrix& a, const Matrix& b);

/// Sum of squares of all elements (‖A‖_F²).
double FrobeniusNormSquared(const Matrix& a);

/// Sum over all elements of A ∘ B (the matrix inner product ⟨A, B⟩).
/// Shapes must match.
double DotAll(const Matrix& a, const Matrix& b);

/// Sum of all elements.
double SumAll(const Matrix& a);

/// Sum of all elements of M_0 * M_1 * ... (Hadamard, applied left to
/// right): the Gram-product evaluation of Kruskal norms and inner products
/// (‖[[A_1..A_N]]‖² from the Grams A_nᵀA_n). Needs at least one matrix;
/// shapes must match.
double HadamardSum(const std::vector<Matrix>& mats);

}  // namespace dismastd

#endif  // DISMASTD_LA_OPS_H_
