#ifndef COLSCOPE_NN_NETWORK_H_
#define COLSCOPE_NN_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace colscope::nn {

/// One fully-connected layer with optional ReLU, trained with Adam.
/// Weights are (in x out), row-major; forward is y = act(x W + b).
class DenseLayer {
 public:
  /// He-initialized weights; biases start at zero.
  DenseLayer(size_t in_dim, size_t out_dim, bool relu, Rng& rng);

  /// Forward pass for a batch (rows = samples). Caches the pre-activation
  /// and input needed by Backward.
  linalg::Matrix Forward(const linalg::Matrix& x);

  /// Inference forward pass: Forward's arithmetic, bit for bit, without
  /// caching anything, so concurrent calls on one layer are safe.
  linalg::Matrix Infer(const linalg::Matrix& x) const;

  /// Backward pass: receives dL/dy, returns dL/dx, and accumulates
  /// parameter gradients for the following AdamStep.
  linalg::Matrix Backward(const linalg::Matrix& grad_out);

  /// Applies one Adam update with the accumulated gradients.
  void AdamStep(double learning_rate, double beta1, double beta2,
                double epsilon, int64_t step);

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

 private:
  /// x W + b, the pre-activation both forward passes share.
  linalg::Matrix PreActivation(const linalg::Matrix& x) const;

  size_t in_dim_;
  size_t out_dim_;
  bool relu_;
  linalg::Matrix weights_;     // in x out.
  linalg::Vector biases_;      // out.
  linalg::Matrix grad_w_;
  linalg::Vector grad_b_;
  linalg::Matrix m_w_, v_w_;   // Adam moments for weights.
  linalg::Vector m_b_, v_b_;   // Adam moments for biases.
  linalg::Matrix input_;       // Cached forward input.
  linalg::Matrix pre_act_;     // Cached pre-activation.
};

/// Training hyperparameters (Adam + MSE, matching the paper's Keras
/// configuration in Section 4.1).
struct TrainOptions {
  int epochs = 50;
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  size_t batch_size = 32;
};

/// A small fully-connected multi-layer perceptron. Used by the
/// autoencoder ODA baseline with the paper's 768|100|10|100|768 layout
/// (hidden layers ReLU, linear output), but usable as a generic
/// regression network.
class Mlp {
 public:
  /// `layer_dims` lists every layer width including input and output,
  /// e.g. {768, 100, 10, 100, 768}. All layers but the last use ReLU.
  Mlp(const std::vector<size_t>& layer_dims, uint64_t seed);

  /// Forward pass without caching gradients (inference). Writes no
  /// member, so threads may share one trained network.
  linalg::Matrix Predict(const linalg::Matrix& x) const;

  /// One epoch of minibatch MSE training against `target`; returns the
  /// epoch's mean MSE loss. Deterministic batch order (no shuffling
  /// randomness beyond the seeded constructor) for reproducibility.
  double TrainEpoch(const linalg::Matrix& x, const linalg::Matrix& target,
                    const TrainOptions& options);

  /// Runs `options.epochs` epochs; returns the final epoch loss.
  double Fit(const linalg::Matrix& x, const linalg::Matrix& target,
             const TrainOptions& options);

  size_t input_dim() const { return layers_.front().in_dim(); }
  size_t output_dim() const { return layers_.back().out_dim(); }

 private:
  std::vector<DenseLayer> layers_;
  int64_t adam_step_ = 0;
};

}  // namespace colscope::nn

#endif  // COLSCOPE_NN_NETWORK_H_
