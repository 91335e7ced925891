#include "cwin/sliding_window.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "la/solve.h"

namespace dismastd {
namespace cwin {

namespace {

/// Stable per-row seed stream: a row's initializer depends only on the
/// model seed and the (mode, row) pair, never on arrival interleaving.
uint64_t RowSeed(uint64_t seed, size_t mode, uint64_t row) {
  uint64_t h = 14695981039346656037ull ^ seed;
  h = (h ^ (static_cast<uint64_t>(mode) + 1)) * 1099511628211ull;
  h = (h ^ (row + 1)) * 1099511628211ull;
  return h;
}

}  // namespace

const char* DecayKindName(DecayKind kind) {
  switch (kind) {
    case DecayKind::kSliding:
      return "sliding";
    case DecayKind::kExponential:
      return "exponential";
  }
  return "?";
}

Result<DecayKind> ParseDecayKind(const std::string& text) {
  static constexpr EnumToken<DecayKind> kTokens[] = {
      {"sliding", DecayKind::kSliding},
      {"window", DecayKind::kSliding},
      {"exponential", DecayKind::kExponential},
      {"exp", DecayKind::kExponential}};
  return ParseEnumToken<DecayKind>(text, "decay kind", kTokens);
}

SlidingWindowModel::SlidingWindowModel(size_t order,
                                       SlidingWindowOptions options)
    : order_(order), options_(options) {
  DISMASTD_CHECK(order_ >= 1);
  DISMASTD_CHECK(options_.rank >= 1);
  dims_.assign(order_, 0);
  factors_.resize(order_);
  grams_.resize(order_);
  rows_.resize(order_);
  for (size_t n = 0; n < order_; ++n) {
    factors_[n] = Matrix(0, options_.rank);
    grams_[n] = Matrix(options_.rank, options_.rank);
  }
}

void SlidingWindowModel::SeedNewRows(size_t mode, uint64_t old_rows,
                                     uint64_t new_rows) {
  const size_t rank = options_.rank;
  Matrix grown(new_rows, rank);
  const Matrix& old_factor = factors_[mode];
  for (uint64_t r = 0; r < old_rows; ++r) {
    std::copy(old_factor.RowPtr(r), old_factor.RowPtr(r) + rank,
              grown.RowPtr(r));
  }
  Matrix& gram = grams_[mode];
  for (uint64_t r = old_rows; r < new_rows; ++r) {
    Rng rng(RowSeed(options_.seed, mode, r));
    double* row = grown.RowPtr(r);
    for (size_t f = 0; f < rank; ++f) row[f] = rng.NextDouble();
    for (size_t a = 0; a < rank; ++a) {
      for (size_t b = 0; b < rank; ++b) gram(a, b) += row[a] * row[b];
    }
  }
  factors_[mode] = std::move(grown);
}

void SlidingWindowModel::GrowForIndex(const uint64_t* index) {
  for (size_t n = 0; n < order_; ++n) {
    if (index[n] >= dims_[n]) {
      SeedNewRows(n, dims_[n], index[n] + 1);
      dims_[n] = index[n] + 1;
    }
  }
}

void SlidingWindowModel::GrowDims(const std::vector<uint64_t>& dims) {
  DISMASTD_CHECK(dims.size() == order_);
  for (size_t n = 0; n < order_; ++n) {
    if (dims[n] > dims_[n]) {
      SeedNewRows(n, dims_[n], dims[n]);
      dims_[n] = dims[n];
    }
  }
}

void SlidingWindowModel::RefreshGramRow(size_t mode, uint64_t row,
                                        const double* old_row) {
  const size_t rank = options_.rank;
  Matrix& gram = grams_[mode];
  const double* new_row = factors_[mode].RowPtr(row);
  for (size_t a = 0; a < rank; ++a) {
    for (size_t b = 0; b < rank; ++b) {
      gram(a, b) += new_row[a] * new_row[b] - old_row[a] * old_row[b];
    }
  }
}

uint64_t SlidingWindowModel::SolveTouched(
    std::vector<std::pair<size_t, uint64_t>>* touched, size_t* rows_solved) {
  const size_t rank = options_.rank;
  uint64_t flops = 0;
  // First-touch order, deduplicated. Each solve is an exact coordinate
  // step (it reads only current rows), so order affects which fixed point
  // the relaxation walks toward, not stability — but a stable order keeps
  // the published bytes identical across replays.
  std::unordered_set<uint64_t> seen;
  std::vector<double> s(rank);
  std::vector<double> hadamard(rank);
  std::vector<double> old_row(rank);
  Matrix normal(rank, rank);
  Matrix rhs(1, rank);
  for (const auto& [mode, row] : *touched) {
    const uint64_t key = static_cast<uint64_t>(mode) << 56 | row;
    if (!seen.insert(key).second) continue;
    RowEvents& list = rows_[mode][row];
    // Prune ids of evicted events (always a prefix: ids are appended in
    // arrival order and eviction pops the window's front).
    size_t dead = 0;
    while (dead < list.ids.size() && list.ids[dead] < front_id_) ++dead;
    if (dead > 0) list.ids.erase(list.ids.begin(), list.ids.begin() + dead);

    // Fresh data term from *current* rows: s = Σ w·v·h over the row's
    // retained events.
    std::fill(s.begin(), s.end(), 0.0);
    for (uint64_t id : list.ids) {
      const WindowEvent& event = window_[id - front_id_];
      std::fill(hadamard.begin(), hadamard.end(), 1.0);
      for (size_t m = 0; m < order_; ++m) {
        if (m == mode) continue;
        const double* other = factors_[m].RowPtr(event.index[m]);
        for (size_t f = 0; f < rank; ++f) hadamard[f] *= other[f];
      }
      double weight = 1.0;
      if (options_.decay == DecayKind::kExponential) {
        weight = std::exp(-options_.decay_lambda *
                          static_cast<double>(
                              std::max<int64_t>(0, watermark_ - event.ts)));
      }
      const double wv = weight * event.value;
      for (size_t f = 0; f < rank; ++f) s[f] += wv * hadamard[f];
      flops += static_cast<uint64_t>((order_ - 1) * rank + 2 * rank);
    }

    // Zero-filled ALS normal matrix for this mode: the Hadamard product
    // of the other modes' Grams. Recomputed per solve because solving a
    // row updates its mode's Gram, which the other modes' normals read.
    for (size_t a = 0; a < rank; ++a) {
      for (size_t b = 0; b < rank; ++b) {
        double prod = 1.0;
        for (size_t m = 0; m < order_; ++m) {
          if (m == mode) continue;
          prod *= grams_[m](a, b);
        }
        normal(a, b) = prod;
      }
      rhs(0, a) = s[a];
    }
    double trace = 0.0;
    for (size_t f = 0; f < rank; ++f) trace += normal(f, f);
    const double ridge =
        options_.ridge * (1.0 + trace / static_cast<double>(rank));
    for (size_t f = 0; f < rank; ++f) normal(f, f) += ridge;
    const Matrix solved = SolveNormalEquationsRows(normal, rhs);
    double* row_ptr = factors_[mode].RowPtr(row);
    std::copy(row_ptr, row_ptr + rank, old_row.begin());
    std::copy(solved.RowPtr(0), solved.RowPtr(0) + rank, row_ptr);
    RefreshGramRow(mode, row, old_row.data());
    flops += static_cast<uint64_t>(rank) * rank * rank +
             static_cast<uint64_t>(order_ - 1) * rank * rank;
    ++*rows_solved;
  }
  touched->clear();
  return flops;
}

UpdateStats SlidingWindowModel::ApplyEvents(const WindowEvent* events,
                                            size_t count) {
  UpdateStats stats;
  std::vector<std::pair<size_t, uint64_t>> touched;
  for (size_t e = 0; e < count; ++e) {
    const WindowEvent& event = events[e];
    DISMASTD_CHECK(event.index.size() == order_);
    GrowForIndex(event.index.data());
    const uint64_t id = front_id_ + window_.size();
    window_.push_back(event);
    for (size_t n = 0; n < order_; ++n) {
      rows_[n][event.index[n]].ids.push_back(id);
      touched.emplace_back(n, event.index[n]);
    }
    if (!has_watermark_ || event.ts > watermark_) {
      watermark_ = event.ts;
      has_watermark_ = true;
    }
    ++stats.events;
  }
  stats.flops += SolveTouched(&touched, &stats.rows_solved);
  return stats;
}

UpdateStats SlidingWindowModel::AdvanceWatermark(int64_t watermark) {
  UpdateStats stats;
  if (!has_watermark_ || watermark > watermark_) {
    watermark_ = watermark;
    has_watermark_ = true;
  }
  if (options_.window_ticks <= 0) return stats;
  const int64_t cutoff = watermark_ - options_.window_ticks;
  std::vector<std::pair<size_t, uint64_t>> touched;
  while (!window_.empty() && window_.front().ts <= cutoff) {
    const WindowEvent& expired = window_.front();
    if (options_.decay == DecayKind::kSliding) {
      // Down-date: the expired event leaves the touched rows' data terms
      // (the id prune in SolveTouched drops it) and those rows re-solve
      // without it below.
      for (size_t n = 0; n < order_; ++n) {
        touched.emplace_back(n, expired.index[n]);
      }
    }
    window_.pop_front();
    ++front_id_;
    ++stats.evicted;
  }
  stats.flops += SolveTouched(&touched, &stats.rows_solved);
  return stats;
}

KruskalTensor SlidingWindowModel::Snapshot() const {
  std::vector<Matrix> factors;
  factors.reserve(order_);
  for (size_t n = 0; n < order_; ++n) factors.push_back(factors_[n]);
  return KruskalTensor(std::move(factors));
}

SparseTensor SlidingWindowModel::WindowTensor() const {
  SparseTensor tensor(dims_);
  for (const WindowEvent& event : window_) {
    tensor.AddRaw(event.index.data(), event.value);
  }
  tensor.Coalesce();
  return tensor;
}

void SlidingWindowModel::ReplaceFactors(const std::vector<Matrix>& factors) {
  DISMASTD_CHECK(factors.size() == order_);
  const size_t rank = options_.rank;
  for (size_t n = 0; n < order_; ++n) {
    DISMASTD_CHECK(factors[n].cols() == rank);
    DISMASTD_CHECK(factors[n].rows() >= dims_[n]);
    factors_[n] = factors[n].RowSlice(0, dims_[n]);
    // Rebuild the Gram exactly from the replaced rows. The per-row event
    // lists stay valid: data terms are rebuilt from current rows at every
    // solve, so the stitched rows become the new relaxation point with no
    // re-accumulation.
    Matrix& gram = grams_[n];
    gram.Fill(0.0);
    for (uint64_t r = 0; r < dims_[n]; ++r) {
      const double* row = factors_[n].RowPtr(r);
      for (size_t a = 0; a < rank; ++a) {
        for (size_t b = 0; b < rank; ++b) gram(a, b) += row[a] * row[b];
      }
    }
  }
}

}  // namespace cwin
}  // namespace dismastd
