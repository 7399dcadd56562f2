#include "scoping/collaborative.h"

#include <algorithm>
#include <climits>
#include <numeric>
#include <optional>

#include "common/parse.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "linalg/stats.h"
#include "obs/metrics.h"

namespace colscope::scoping {

Result<LocalModel> LocalModel::Fit(const linalg::Matrix& local_signatures,
                                   double v, int schema_index) {
  if (local_signatures.rows() == 0) {
    return Status::InvalidArgument("schema has no signatures");
  }
  Result<linalg::PcaModel> pca =
      linalg::PcaModel::FitWithVariance(local_signatures, v);
  if (!pca.ok()) return pca.status();

  // Definition 3: l_k = max training reconstruction error.
  const linalg::Vector errors = pca->ReconstructionErrors(local_signatures);
  const double range = *std::max_element(errors.begin(), errors.end());
  return LocalModel(std::move(pca).value(), range, schema_index);
}

Result<LocalModel> LocalModel::FromParts(linalg::PcaModel pca,
                                         double linkability_range,
                                         int schema_index) {
  if (linkability_range < 0.0) {
    return Status::InvalidArgument("linkability range must be >= 0");
  }
  return LocalModel(std::move(pca), linkability_range, schema_index);
}

double LocalModel::ReconstructionError(
    const linalg::Vector& signature) const {
  return pca_.ReconstructionError(signature);
}

linalg::Vector LocalModel::ReconstructionErrors(
    const linalg::Matrix& signatures) const {
  return pca_.ReconstructionErrors(signatures);
}

bool LocalModel::Recognizes(const linalg::Vector& signature) const {
  return ReconstructionError(signature) <= linkability_range_;
}

std::vector<bool> AssessLinkability(const linalg::Matrix& local_signatures,
                                    int own_schema_index,
                                    const std::vector<LocalModel>& models) {
  std::vector<bool> linkable(local_signatures.rows(), false);
  for (const LocalModel& model : models) {
    if (model.schema_index() == own_schema_index) continue;
    const linalg::Vector errors =
        model.ReconstructionErrors(local_signatures);
    for (size_t i = 0; i < errors.size(); ++i) {
      if (errors[i] <= model.linkability_range()) linkable[i] = true;
    }
  }
  return linkable;
}

const char* DegradedPolicyToString(DegradedPolicy policy) {
  switch (policy) {
    case DegradedPolicy::kFailClosed:
      return "fail_closed";
    case DegradedPolicy::kKeepAll:
      return "keep_all";
    case DegradedPolicy::kQuorum:
      return "quorum";
  }
  return "unknown";
}

Result<DegradedOptions> ParseDegradedPolicy(const std::string& spec) {
  DegradedOptions options;
  if (spec == "fail-closed" || spec == "fail_closed") {
    options.policy = DegradedPolicy::kFailClosed;
    return options;
  }
  if (spec == "keep-all" || spec == "keep_all") {
    options.policy = DegradedPolicy::kKeepAll;
    return options;
  }
  const std::string quorum_prefix = "quorum";
  if (spec.rfind(quorum_prefix, 0) == 0) {
    options.policy = DegradedPolicy::kQuorum;
    options.quorum = 1;
    if (spec.size() > quorum_prefix.size()) {
      if (spec[quorum_prefix.size()] != ':') {
        return Status::InvalidArgument("malformed quorum spec: " + spec);
      }
      long long q = 0;
      if (!ParseInt(spec.substr(quorum_prefix.size() + 1), 1, LLONG_MAX,
                    q)) {
        return Status::InvalidArgument("quorum must be a positive integer: " +
                                       spec);
      }
      options.quorum = static_cast<size_t>(q);
    }
    return options;
  }
  return Status::InvalidArgument(
      "unknown exchange policy (want fail-closed|keep-all|quorum[:N]): " +
      spec);
}

Result<std::vector<bool>> AssessLinkabilityDegraded(
    const linalg::Matrix& local_signatures, int own_schema_index,
    const std::vector<LocalModel>& arrived, size_t expected_peers,
    const DegradedOptions& options) {
  size_t foreign = 0;
  for (const LocalModel& model : arrived) {
    if (model.schema_index() != own_schema_index) ++foreign;
  }
  switch (options.policy) {
    case DegradedPolicy::kFailClosed:
      if (foreign < expected_peers) {
        return Status::Unavailable(StrFormat(
            "schema %d reached only %zu of %zu peer models "
            "(policy fail_closed)",
            own_schema_index, foreign, expected_peers));
      }
      break;
    case DegradedPolicy::kKeepAll:
      if (foreign == 0) {
        // All peers unreachable: fall back to the traditional pipeline
        // for this schema — keep every element (Figure 2, no pruning).
        return std::vector<bool>(local_signatures.rows(), true);
      }
      break;
    case DegradedPolicy::kQuorum:
      if (foreign < options.quorum) {
        return Status::Unavailable(StrFormat(
            "schema %d reached only %zu peer models, quorum is %zu",
            own_schema_index, foreign, options.quorum));
      }
      break;
  }
  return AssessLinkability(local_signatures, own_schema_index, arrived);
}

Result<std::vector<LocalModel>> FitLocalModelsOf(
    const SignatureSet& signatures, const std::vector<size_t>& schemas,
    double v, ThreadPool* pool, const CancellationToken* cancel) {
  std::vector<std::optional<LocalModel>> slots(schemas.size());
  std::vector<Status> statuses(schemas.size());
  const auto fit_one = [&](size_t i) {
    const int schema = static_cast<int>(schemas[i]);
    Result<LocalModel> model =
        LocalModel::Fit(signatures.SchemaSignatures(schema), v, schema);
    if (model.ok()) {
      slots[i] = std::move(model).value();
    } else {
      statuses[i] = model.status();
    }
  };
  if (pool != nullptr && schemas.size() > 1) {
    COLSCOPE_RETURN_IF_ERROR(
        pool->ParallelFor(schemas.size(), fit_one, cancel));
  } else {
    for (size_t i = 0; i < schemas.size(); ++i) {
      if (cancel != nullptr && cancel->cancelled()) {
        return Status::Cancelled("local-model fit cancelled");
      }
      fit_one(i);
      if (!statuses[i].ok()) return statuses[i];
    }
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  std::vector<LocalModel> models;
  models.reserve(schemas.size());
  for (auto& slot : slots) models.push_back(std::move(*slot));
  return models;
}

namespace {

std::vector<size_t> AllSchemas(size_t num_schemas) {
  std::vector<size_t> schemas(num_schemas);
  std::iota(schemas.begin(), schemas.end(), size_t{0});
  return schemas;
}

}  // namespace

Result<std::vector<LocalModel>> FitLocalModels(const SignatureSet& signatures,
                                               size_t num_schemas, double v) {
  return FitLocalModelsOf(signatures, AllSchemas(num_schemas), v, nullptr,
                          nullptr);
}

Result<std::vector<LocalModel>> FitLocalModelsOnPool(
    const SignatureSet& signatures, size_t num_schemas, double v,
    ThreadPool& pool, const CancellationToken* cancel) {
  return FitLocalModelsOf(signatures, AllSchemas(num_schemas), v, &pool,
                          cancel);
}

std::vector<bool> AssessAll(const SignatureSet& signatures,
                            size_t num_schemas,
                            const std::vector<LocalModel>& models) {
  std::vector<bool> keep(signatures.size(), false);
  for (size_t s = 0; s < num_schemas; ++s) {
    const int schema = static_cast<int>(s);
    const std::vector<size_t> rows = signatures.RowsOfSchema(schema);
    const linalg::Matrix local = signatures.SchemaSignatures(schema);
    const std::vector<bool> linkable =
        AssessLinkability(local, schema, models);
    for (size_t i = 0; i < rows.size(); ++i) keep[rows[i]] = linkable[i];
  }
  return keep;
}

Result<std::vector<bool>> AssessAllSparse(
    const SignatureSet& signatures, size_t num_schemas,
    const std::vector<std::vector<LocalModel>>& arrived_per_schema,
    const DegradedOptions& options, obs::MetricsRegistry* metrics) {
  if (arrived_per_schema.size() != num_schemas) {
    return Status::InvalidArgument(
        StrFormat("expected %zu per-schema model sets, got %zu", num_schemas,
                  arrived_per_schema.size()));
  }
  std::vector<bool> keep(signatures.size(), false);
  const size_t expected_peers = num_schemas > 0 ? num_schemas - 1 : 0;
  for (size_t s = 0; s < num_schemas; ++s) {
    const int schema = static_cast<int>(s);
    const std::vector<size_t> rows = signatures.RowsOfSchema(schema);
    const linalg::Matrix local = signatures.SchemaSignatures(schema);
    Result<std::vector<bool>> linkable = AssessLinkabilityDegraded(
        local, schema, arrived_per_schema[s], expected_peers, options);
    if (!linkable.ok()) return linkable.status();
    for (size_t i = 0; i < rows.size(); ++i) keep[rows[i]] = (*linkable)[i];
  }
  if (metrics != nullptr) {
    const char* policy = DegradedPolicyToString(options.policy);
    size_t kept = 0;
    for (bool k : keep) kept += k;
    metrics->GetCounter(StrFormat("scoping.kept.%s", policy))
        .Increment(kept);
    metrics->GetCounter(StrFormat("scoping.pruned.%s", policy))
        .Increment(keep.size() - kept);
  }
  return keep;
}

Result<std::vector<bool>> CollaborativeScoping(const SignatureSet& signatures,
                                               size_t num_schemas, double v) {
  Result<std::vector<LocalModel>> models =
      FitLocalModels(signatures, num_schemas, v);
  if (!models.ok()) return models.status();
  return AssessAll(signatures, num_schemas, *models);
}

}  // namespace colscope::scoping
