#include "setup.hpp"

#include <algorithm>

#include "data/synthetic.hpp"
#include "dnn/engine.hpp"
#include "dnn/reference.hpp"
#include "platform/timer.hpp"
#include "radixnet/radixnet.hpp"
#include "schedule.hpp"

namespace perfbench {

namespace snicit_dnn = snicit::dnn;

namespace {

SdgcModel make_sdgc_model() {
  snicit::radixnet::RadixNetOptions opt;
  opt.neurons = kSdgcNeurons;
  opt.layers = kSdgcLayers;
  opt.fanin = 32;
  opt.seed = 42;
  auto net = std::make_shared<snicit_dnn::SparseDnn>(
      snicit::radixnet::make_radixnet(opt));
  net->ensure_csc();
  return SdgcModel{std::move(net), snicit::core::SnicitParams{}};
}

SdgcBatch make_sdgc_batch(const SdgcModel& model, std::uint64_t seed) {
  snicit::data::SdgcInputOptions opt;
  opt.neurons = kSdgcNeurons;
  opt.batch = kSdgcBatch;
  opt.classes = kClasses;
  opt.seed = seed;
  SdgcBatch b;
  b.input = snicit::data::make_sdgc_input(opt).features;
  b.reference = snicit_dnn::reference_forward(*model.net, b.input);
  b.categories = snicit_dnn::sdgc_categories(b.reference);
  return b;
}

MediumModel train_medium_model() {
  // Table-4 net D (256-12, CIFAR-like): corpus, split and training
  // options are those of the repository's Table-4 harness.
  snicit::data::ClusteredOptions corpus_opt;
  corpus_opt.classes = kClasses;
  corpus_opt.count = 2200;  // 1200 train + 1000 held out
  corpus_opt.seed = 9202;
  corpus_opt.dim = 3072;
  corpus_opt.active_fraction = 0.4;
  corpus_opt.noise = 0.45;
  corpus_opt.flip_prob = 0.10;
  corpus_opt.class_separation = 0.35;
  const auto corpus = snicit::data::make_clustered_dataset(corpus_opt);
  const auto train_set = corpus.slice(0, 1200);
  const auto test_set = corpus.slice(1200, 2200);

  snicit::train::MlpOptions mopt;
  mopt.in_dim = train_set.dim();
  mopt.hidden = 256;
  mopt.sparse_layers = 12;
  mopt.classes = kClasses;
  mopt.density = 0.55;
  mopt.ymax = 1.0f;
  mopt.seed = 1000 + 256 + 12;
  auto mlp = std::make_shared<snicit::train::SparseMlp>(mopt);
  snicit::train::TrainOptions topt;
  topt.epochs = 10;
  topt.batch_size = 50;
  topt.adam.lr = 1e-3f;
  mlp->fit(train_set, topt);

  MediumModel m;
  m.net = std::make_shared<snicit_dnn::SparseDnn>(
      mlp->to_sparse_dnn("D 256-12"));
  m.net->ensure_csc();
  m.hidden0 = mlp->hidden_input(test_set.features);
  m.labels = test_set.labels;
  m.mlp = std::move(mlp);
  // The paper's medium configuration (§4.2.1): t = largest even integer
  // <= l/2, s = 128, no downsampling, eta = eps = 0.03, ne_idx refreshed
  // every layer, near-zero residue pruning at 0.05 on the ymax = 1 scale.
  m.params.threshold_layer = 6;
  m.params.sample_size = 128;
  m.params.downsample_dim = 0;
  m.params.eta = 0.03f;
  m.params.epsilon = 0.03f;
  m.params.prune_threshold = 0.05f;
  m.params.ne_refresh_interval = 1;
  return m;
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "sdgc-batch") return Workload::kSdgcBatch;
  if (name == "medium-batch") return Workload::kMediumBatch;
  if (name == "serve-mix") return Workload::kServeMix;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kSdgcBatch: return "sdgc-batch";
    case Workload::kMediumBatch: return "medium-batch";
    case Workload::kServeMix: return "serve-mix";
  }
  return "unknown";
}

std::vector<int> medium_categories(const MediumModel& model,
                                   const DenseMatrix& hidden_out) {
  return snicit_dnn::argmax_categories(
      model.mlp->logits_from_hidden(hidden_out), kClasses);
}

double agreement_pct(const std::vector<int>& a, const std::vector<int>& b) {
  return 100.0 * snicit_dnn::category_match_rate(a, b);
}

DenseMatrix gather_columns(const DenseMatrix& m,
                           const std::vector<std::size_t>& order) {
  DenseMatrix out(m.rows(), order.size());
  for (std::size_t j = 0; j < order.size(); ++j) {
    std::copy_n(m.col(order[j]), m.rows(), out.col(j));
  }
  return out;
}

Setup build_setup(Workload w, std::uint64_t seed) {
  Setup s;
  snicit::platform::Stopwatch total;
  snicit::platform::Stopwatch part;

  if (w != Workload::kMediumBatch) {
    part.reset();
    s.sdgc = make_sdgc_model();
    s.times.radixnet_s = part.elapsed_ms() / 1000.0;
    part.reset();
    const std::size_t batches = w == Workload::kSdgcBatch ? kSdgcBatches : 1;
    for (std::size_t k = 0; k < batches; ++k) {
      s.sdgc_batches.push_back(
          make_sdgc_batch(*s.sdgc, derive_seed(seed, 100 + k)));
    }
    s.times.reference_s += part.elapsed_ms() / 1000.0;
  }

  if (w != Workload::kSdgcBatch) {
    part.reset();
    s.medium = train_medium_model();
    s.times.train_s = part.elapsed_ms() / 1000.0;
    part.reset();
    MediumModel& m = *s.medium;
    m.exact_categories = medium_categories(
        m, snicit_dnn::reference_forward(*m.net, m.hidden0));
    if (w == Workload::kMediumBatch) {
      // The held-out set in several seeded column orders: SNICIT samples
      // its centroids from a batch prefix, so no one order is special.
      for (std::size_t k = 0; k < 4; ++k) {
        const auto order =
            seeded_permutation(derive_seed(seed, 200 + k), m.labels.size());
        MediumBatch b;
        b.input = gather_columns(m.hidden0, order);
        for (std::size_t j : order) {
          b.labels.push_back(m.labels[j]);
          b.exact_categories.push_back(m.exact_categories[j]);
        }
        s.medium_batches.push_back(std::move(b));
      }
    }
    s.times.reference_s += part.elapsed_ms() / 1000.0;
  }
  s.times.total_s = total.elapsed_ms() / 1000.0;
  return s;
}

}  // namespace perfbench
