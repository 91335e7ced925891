#include "stream/datasets.h"

#include <utility>

#include "common/string_util.h"

namespace dismastd {

std::vector<DatasetSpec> PaperDatasets() {
  // Scaled mimics of Table III. Mode ratios follow the paper; nnz is scaled
  // to finish on one machine. Rating tensors use Zipf-skewed user/item modes
  // (heavy users / popular items) and a mildly skewed time mode; Synthetic
  // is uniform, as specified.
  // The Zipf exponents are chosen so the head slices are heavy (skewed)
  // but no single slice exceeds the per-partition target at p = 38, as in
  // the real datasets (the top Netflix user holds ~0.02% of all ratings).
  return {
      DatasetSpec{"Clothing",
                  {120000, 27000, 700},
                  500000,
                  {0.9, 0.9, 0.6},
                  101},
      DatasetSpec{"Book", {150000, 29000, 820}, 800000, {0.9, 0.9, 0.6}, 102},
      DatasetSpec{"Netflix",
                  {96000, 3600, 440},
                  1500000,
                  {0.8, 0.95, 0.5},
                  103},
      DatasetSpec{"Synthetic",
                  {3000, 3000, 3000},
                  3000000,
                  {0.0, 0.0, 0.0},
                  104},
  };
}

Result<DatasetSpec> FindDataset(const std::string& name) {
  const std::string want = AsciiLower(name);
  for (const DatasetSpec& spec : PaperDatasets()) {
    if (AsciiLower(spec.name) == want) return spec;
  }
  return Status::NotFound("unknown dataset: " + name);
}

SparseTensor MakeDatasetTensor(const DatasetSpec& spec) {
  GeneratorOptions options;
  options.dims = spec.dims;
  options.nnz = spec.nnz;
  options.zipf_exponents = spec.zipf_exponents;
  options.seed = spec.seed;
  options.latent_rank = 4;     // low-rank signal so decompositions converge
  options.noise_stddev = 0.1;  // plus noise, as in real rating data
  return GenerateSparseTensor(options).tensor;
}

StreamingTensorSequence MakeDatasetStream(const DatasetSpec& spec,
                                          double start_fraction,
                                          double step_fraction,
                                          size_t num_steps) {
  SparseTensor full = MakeDatasetTensor(spec);
  std::vector<std::vector<uint64_t>> schedule = MakeGrowthSchedule(
      full.dims(), start_fraction, step_fraction, num_steps);
  return StreamingTensorSequence(std::move(full), std::move(schedule));
}

}  // namespace dismastd
