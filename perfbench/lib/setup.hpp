// Workload set-up: the models each workload serves, the inputs it
// generates from its seed, and the reference outputs every result is
// checked against. Set-up is timed part by part (setup.radixnet_s,
// setup.train_s, setup.reference_s); its total is the setup_s metric.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dnn/sparse_dnn.hpp"
#include "snicit/params.hpp"
#include "sparse/dense_matrix.hpp"
#include "train/mlp.hpp"

namespace perfbench {

using snicit::sparse::DenseMatrix;

enum class Workload { kSdgcBatch, kMediumBatch, kServeMix };

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload w);

/// The SDGC network of Table 3: a RadixNet of 1024 neurons x 120 layers,
/// fan-in 32, Table-1 bias, fixed generator seed (the model does not vary
/// with the workload seed; its inputs do).
inline constexpr int kSdgcNeurons = 1024;
inline constexpr int kSdgcLayers = 120;
inline constexpr std::size_t kSdgcBatch = 512;
inline constexpr std::size_t kSdgcBatches = 8;  // distinct seeded batches
inline constexpr std::size_t kClasses = 10;

struct SdgcModel {
  std::shared_ptr<const snicit::dnn::SparseDnn> net;
  snicit::core::SnicitParams params;  // the paper's SDGC defaults, t = 30
};

/// One seeded SDGC input batch with its serial-reference output.
struct SdgcBatch {
  DenseMatrix input;
  DenseMatrix reference;
  std::vector<int> categories;  // sdgc_categories(reference)
};

/// Table-4 net D: a CIFAR-like MLP with 12 sparse hidden layers of 256
/// neurons, trained at set-up from fixed seeds (the recipe of the
/// repository's Table-4 harness), with its 1000-column held-out set.
struct MediumModel {
  std::shared_ptr<const snicit::train::SparseMlp> mlp;
  std::shared_ptr<const snicit::dnn::SparseDnn> net;
  DenseMatrix hidden0;               // held-out activations entering layer 0
  std::vector<int> labels;           // held-out labels
  std::vector<int> exact_categories; // argmax of exact inference
  snicit::core::SnicitParams params; // the paper's medium configuration
};

/// One seeded column order of the held-out set (the medium-batch input).
struct MediumBatch {
  DenseMatrix input;
  std::vector<int> labels;
  std::vector<int> exact_categories;
};

struct SetupTimes {
  double radixnet_s = 0.0;   // RadixNet generation + CSC mirrors
  double train_s = 0.0;      // corpus generation + training + export
  double reference_s = 0.0;  // inputs + exact reference outputs
  double total_s = 0.0;
};

struct Setup {
  std::optional<SdgcModel> sdgc;
  std::vector<SdgcBatch> sdgc_batches;  // sdgc-batch: kSdgcBatches;
                                        // serve-mix: 1 (the request pool)
  std::optional<MediumModel> medium;
  std::vector<MediumBatch> medium_batches;  // medium-batch only
  SetupTimes times;
};

/// Builds everything workload `w` needs from `seed`.
Setup build_setup(Workload w, std::uint64_t seed);

/// Argmax class of every column of a medium-net hidden output.
std::vector<int> medium_categories(const MediumModel& model,
                                   const DenseMatrix& hidden_out);

/// Share of equal entries, in percent.
double agreement_pct(const std::vector<int>& a, const std::vector<int>& b);

/// Columns `order` of `m`, in that order.
DenseMatrix gather_columns(const DenseMatrix& m,
                           const std::vector<std::size_t>& order);

}  // namespace perfbench
