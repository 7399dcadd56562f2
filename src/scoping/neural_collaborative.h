#ifndef COLSCOPE_SCOPING_NEURAL_COLLABORATIVE_H_
#define COLSCOPE_SCOPING_NEURAL_COLLABORATIVE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "nn/network.h"
#include "scoping/signatures.h"

namespace colscope::obs {
class MetricsRegistry;
}  // namespace colscope::obs

namespace colscope::scoping {

/// Configuration of a neural local encoder-decoder. The bottleneck width
/// plays the role the explained-variance target v plays for the PCA
/// model: it bounds how much of the local signature variance the model
/// can memorize, i.e. its generalization level.
struct NeuralLocalModelOptions {
  std::vector<size_t> hidden_dims = {100, 10, 100};
  int epochs = 60;
  double learning_rate = 1e-3;
  size_t batch_size = 16;
  uint64_t seed = 0xc011ab;
};

/// Non-linear local encoder-decoder — the paper's stated future-work
/// extension ("extend encoder-decoders in order to recognize non-linear
/// signature patterns", Section 5). A small autoencoder MLP replaces the
/// PCA of Algorithm 1; Definition 3 (linkability range = max training
/// reconstruction MSE) and Definition 4 (a foreign element is linkable
/// iff some foreign model reconstructs it within that range) carry over
/// unchanged. Duck-type compatible with LocalModel for the AssessLinkability
/// template, which is the one per-model loop both model kinds run.
class NeuralLocalModel {
 public:
  /// Trains the autoencoder on one schema's signatures (Algorithm 1 with
  /// a neural encoder-decoder).
  static Result<NeuralLocalModel> Fit(const linalg::Matrix& local_signatures,
                                      const NeuralLocalModelOptions& options,
                                      int schema_index);

  /// Per-row reconstruction MSE of foreign signatures.
  linalg::Vector ReconstructionErrors(const linalg::Matrix& signatures) const;

  /// Reconstruction MSE of the listed rows of `signatures`, gathered into
  /// one Predict batch (each output row depends only on its input row).
  linalg::Vector ReconstructionErrors(const linalg::Matrix& signatures,
                                      std::span<const size_t> rows) const;

  double ReconstructionError(const linalg::Vector& signature) const;

  int schema_index() const { return schema_index_; }
  double linkability_range() const { return linkability_range_; }

 private:
  NeuralLocalModel(std::shared_ptr<nn::Mlp> net, double range,
                   int schema_index)
      : net_(std::move(net)),
        linkability_range_(range),
        schema_index_(schema_index) {}

  // shared_ptr so models stay copyable like the PCA LocalModel; the
  // network is immutable after Fit (Predict is const and caches nothing,
  // so copies may score on different threads).
  std::shared_ptr<nn::Mlp> net_;
  double linkability_range_;
  int schema_index_;
};

/// Full collaborative scoping with neural local models: fits one
/// autoencoder per schema and runs the distributed assessment
/// (Algorithm 2) serially. Returns the keep-mask in signature row order.
/// A non-null `metrics` receives the model-pass counters.
Result<std::vector<bool>> CollaborativeScopingNeural(
    const SignatureSet& signatures, size_t num_schemas,
    const NeuralLocalModelOptions& options = {},
    obs::MetricsRegistry* metrics = nullptr);

/// Phase II only, exposed for sweeps over the options.
Result<std::vector<NeuralLocalModel>> FitNeuralLocalModels(
    const SignatureSet& signatures, size_t num_schemas,
    const NeuralLocalModelOptions& options);

}  // namespace colscope::scoping

#endif  // COLSCOPE_SCOPING_NEURAL_COLLABORATIVE_H_
