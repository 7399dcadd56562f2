#include "scoping/neural_collaborative.h"

#include <algorithm>

#include "linalg/stats.h"
#include "scoping/collaborative.h"

namespace colscope::scoping {

Result<NeuralLocalModel> NeuralLocalModel::Fit(
    const linalg::Matrix& local_signatures,
    const NeuralLocalModelOptions& options, int schema_index) {
  if (local_signatures.rows() == 0) {
    return Status::InvalidArgument("schema has no signatures");
  }
  if (options.hidden_dims.empty()) {
    return Status::InvalidArgument("autoencoder needs >= 1 hidden layer");
  }

  std::vector<size_t> dims;
  dims.push_back(local_signatures.cols());
  dims.insert(dims.end(), options.hidden_dims.begin(),
              options.hidden_dims.end());
  dims.push_back(local_signatures.cols());

  // Mix the schema index into the seed so the distributed models are
  // independently initialized, like independently-owned deployments.
  auto net = std::make_shared<nn::Mlp>(
      dims, options.seed + 0x9e3779b9u * static_cast<uint64_t>(schema_index));
  nn::TrainOptions train;
  train.epochs = options.epochs;
  train.learning_rate = options.learning_rate;
  train.batch_size = options.batch_size;
  net->Fit(local_signatures, local_signatures, train);

  const linalg::Vector errors = linalg::RowwiseMse(
      local_signatures, net->Predict(local_signatures));
  const double range = *std::max_element(errors.begin(), errors.end());
  return NeuralLocalModel(std::move(net), range, schema_index);
}

linalg::Vector NeuralLocalModel::ReconstructionErrors(
    const linalg::Matrix& signatures) const {
  return linalg::RowwiseMse(signatures, net_->Predict(signatures));
}

linalg::Vector NeuralLocalModel::ReconstructionErrors(
    const linalg::Matrix& signatures, std::span<const size_t> rows) const {
  return ReconstructionErrors(linalg::GatherRows(signatures, rows));
}

double NeuralLocalModel::ReconstructionError(
    const linalg::Vector& signature) const {
  linalg::Matrix one(1, signature.size());
  one.SetRow(0, signature);
  return ReconstructionErrors(one)[0];
}

Result<std::vector<NeuralLocalModel>> FitNeuralLocalModels(
    const SignatureSet& signatures, size_t num_schemas,
    const NeuralLocalModelOptions& options) {
  std::vector<NeuralLocalModel> models;
  models.reserve(num_schemas);
  for (size_t s = 0; s < num_schemas; ++s) {
    Result<NeuralLocalModel> model = NeuralLocalModel::Fit(
        signatures.SchemaSignatures(static_cast<int>(s)), options,
        static_cast<int>(s));
    if (!model.ok()) return model.status();
    models.push_back(std::move(model).value());
  }
  return models;
}

Result<std::vector<bool>> CollaborativeScopingNeural(
    const SignatureSet& signatures, size_t num_schemas,
    const NeuralLocalModelOptions& options, obs::MetricsRegistry* metrics) {
  Result<std::vector<NeuralLocalModel>> models =
      FitNeuralLocalModels(signatures, num_schemas, options);
  if (!models.ok()) return models.status();

  ModelPasses passes;
  Result<std::vector<bool>> keep = MergeConsumerVerdicts(
      signatures, num_schemas, [&](int schema) -> Result<std::vector<bool>> {
        return AssessLinkability(signatures.signatures,
                                 signatures.RowsOfSchema(schema), schema,
                                 *models, &passes);
      });
  if (keep.ok()) RecordModelPasses(passes, metrics);
  return keep;
}

}  // namespace colscope::scoping
