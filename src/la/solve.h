#ifndef DISMASTD_LA_SOLVE_H_
#define DISMASTD_LA_SOLVE_H_

#include "la/matrix.h"

namespace dismastd {

/// Cholesky factorization of a symmetric positive-definite matrix:
/// writes the lower triangle L with A = L Lᵀ. Fails (returns non-OK) if a
/// pivot is not positive.
Status CholeskyFactor(const Matrix& a, Matrix* lower);

/// Solves A x = b given the Cholesky factor L (forward + back substitution)
/// for every row of `rhs_rows` laid out as rows: solves Xᵀ where
/// A · Xᵀ = RHSᵀ, i.e. computes RHS · A⁻¹ row-wise. `rhs_rows` is M x R,
/// A is R x R; result is M x R. Every row goes through one call of the
/// dispatched kernel table's solve_rows; each row's result is
/// bit-identical to solving it alone.
Matrix CholeskySolveRows(const Matrix& lower, const Matrix& rhs_rows);

/// The factorization half of SolveNormalEquationsRows: the Cholesky factor
/// of A, retried on failure with a diagonal ridge 1e-12 · trace(A)/R grown
/// 100x per attempt (an all-zero Gram takes the ridge). Returns an empty
/// matrix if every attempt fails, as on a NaN entry. Factor once, then
/// solve any number of row blocks against it with SolveFactoredRows.
Matrix FactorNormalEquations(const Matrix& a);

/// The solve half: RHS · A⁻¹ row-wise from `lower` =
/// FactorNormalEquations(A). An empty factor gives the zero update, so
/// callers never see NaNs.
Matrix SolveFactoredRows(const Matrix& lower, const Matrix& rhs_rows);

/// Solves the ALS normal equations X · A = RHS for X, i.e. X = RHS · A⁻¹,
/// where A is a small (R x R) symmetric matrix that is positive definite in
/// exact arithmetic but can be near-singular in practice: factors A with
/// FactorNormalEquations (Cholesky, then a growing ridge) and solves with
/// SolveFactoredRows. This is the "division" in the paper's update rules
/// (Eq. 3/5).
Matrix SolveNormalEquationsRows(const Matrix& a, const Matrix& rhs_rows);

/// General LU solve with partial pivoting: returns X with A X = B.
/// A must be square and non-singular (checked with a tolerance).
Status LuSolve(const Matrix& a, const Matrix& b, Matrix* x);

/// Matrix inverse via LU; fails on singular input.
Status Inverse(const Matrix& a, Matrix* inv);

}  // namespace dismastd

#endif  // DISMASTD_LA_SOLVE_H_
