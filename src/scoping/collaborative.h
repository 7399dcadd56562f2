#ifndef COLSCOPE_SCOPING_COLLABORATIVE_H_
#define COLSCOPE_SCOPING_COLLABORATIVE_H_

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "linalg/pca.h"
#include "scoping/signatures.h"

namespace colscope {
class ThreadPool;
}  // namespace colscope

namespace colscope::obs {
class MetricsRegistry;
}  // namespace colscope::obs

namespace colscope::scoping {

/// The distributed local model M_k = {mu_k, PC_k, l_k} of Algorithm 1:
/// a PCA encoder-decoder fitted on one schema's own signatures at the
/// globally agreed explained-variance level v, plus the local
/// linkability range l_k (Definition 3 — the maximum training
/// reconstruction error). Only this model is exchanged between schemas,
/// never the signatures themselves.
class LocalModel {
 public:
  /// Algorithm 1: fits the encoder-decoder on `local_signatures` (the
  /// signatures of schema `schema_index`) with explained-variance target
  /// `v` in (0, 1].
  static Result<LocalModel> Fit(const linalg::Matrix& local_signatures,
                                double v, int schema_index);

  /// Reassembles a model from exchanged parts (see scoping/model_io.h).
  static Result<LocalModel> FromParts(linalg::PcaModel pca,
                                      double linkability_range,
                                      int schema_index);

  /// Reconstruction MSE of a foreign signature through this model
  /// (the M_m(e) score of Definition 4).
  double ReconstructionError(const linalg::Vector& signature) const;

  /// Per-row reconstruction MSE for a batch of foreign signatures.
  linalg::Vector ReconstructionErrors(const linalg::Matrix& signatures) const;

  /// Definition 4: true iff `signature` reconstructs within the local
  /// linkability range [0, l_k].
  bool Recognizes(const linalg::Vector& signature) const;

  int schema_index() const { return schema_index_; }
  double linkability_range() const { return linkability_range_; }
  const linalg::PcaModel& pca() const { return pca_; }

 private:
  LocalModel(linalg::PcaModel pca, double range, int schema_index)
      : pca_(std::move(pca)),
        linkability_range_(range),
        schema_index_(schema_index) {}

  linalg::PcaModel pca_;
  double linkability_range_;
  int schema_index_;
};

/// Algorithm 2 for one schema: assesses every row of `local_signatures`
/// against the models of the *other* schemas; a row is linkable if at
/// least one foreign model reconstructs it within its linkability range.
/// Models whose schema_index equals `own_schema_index` are skipped.
std::vector<bool> AssessLinkability(const linalg::Matrix& local_signatures,
                                    int own_schema_index,
                                    const std::vector<LocalModel>& models);

/// What collaborative scoping does when peer models are missing — e.g.
/// lost on the exchange transport (see exchange/) or withheld by a
/// participant.
enum class DegradedPolicy {
  /// Error out unless every expected foreign model is present (the
  /// pre-fault-tolerance behavior).
  kFailClosed,
  /// Schemas with *no* reachable peers fall back to the traditional
  /// Figure-2 pipeline (keep everything); schemas with partial arrivals
  /// assess against the models that did arrive.
  kKeepAll,
  /// Proceed for a schema only when at least `quorum` foreign models
  /// arrived; error otherwise.
  kQuorum,
};

/// Canonical lower-snake name of `policy` ("fail_closed", ...).
const char* DegradedPolicyToString(DegradedPolicy policy);

struct DegradedOptions {
  DegradedPolicy policy = DegradedPolicy::kFailClosed;
  /// Minimum arrived foreign models per schema under kQuorum.
  size_t quorum = 1;
};

/// Parses a CLI-style policy spec: "fail-closed", "keep-all", or
/// "quorum[:N]" (N defaults to 1).
Result<DegradedOptions> ParseDegradedPolicy(const std::string& spec);

/// Algorithm 2 for one schema over a possibly-incomplete model set.
/// `arrived` holds the foreign models that reached this schema (own
/// models are skipped as in AssessLinkability); `expected_peers` is how
/// many foreign models a fault-free exchange would have delivered. The
/// policy decides between assessing, keeping everything, and erroring.
Result<std::vector<bool>> AssessLinkabilityDegraded(
    const linalg::Matrix& local_signatures, int own_schema_index,
    const std::vector<LocalModel>& arrived, size_t expected_peers,
    const DegradedOptions& options);

/// Full collaborative scoping (phases II + III) over a signature set:
/// fits one local model per schema at explained variance `v` and runs the
/// distributed linkability assessment. Returns the keep-mask in signature
/// row order (true = linkable, i.e. kept in the streamlined schemas S').
Result<std::vector<bool>> CollaborativeScoping(const SignatureSet& signatures,
                                               size_t num_schemas, double v);

/// Phase II for the schemas listed in `schemas`: fits one local model
/// per schema at explained variance `v`, returned in the order of
/// `schemas`. The paper observes that "the computation of the
/// self-supervised encoder-decoder ... takes place in parallel at each
/// local schema" (Section 3): with a non-null `pool` each schema is one
/// task on it, otherwise the fits run on the calling thread. Models are
/// identical either way. A non-null `cancel` token makes the fit
/// cooperative: once it trips no new per-schema fit starts and the call
/// returns Cancelled.
Result<std::vector<LocalModel>> FitLocalModelsOf(
    const SignatureSet& signatures, const std::vector<size_t>& schemas,
    double v, ThreadPool* pool, const CancellationToken* cancel);

/// FitLocalModelsOf over every schema, serially — for callers that sweep
/// v or inspect n_comp / l_k per schema.
Result<std::vector<LocalModel>> FitLocalModels(const SignatureSet& signatures,
                                               size_t num_schemas, double v);

/// FitLocalModelsOf over every schema on a caller-supplied pool (e.g. the
/// pipeline's run-wide pool, shared with the encode and match phases).
Result<std::vector<LocalModel>> FitLocalModelsOnPool(
    const SignatureSet& signatures, size_t num_schemas, double v,
    ThreadPool& pool, const CancellationToken* cancel = nullptr);

/// Phase III given prefitted models.
std::vector<bool> AssessAll(const SignatureSet& signatures,
                            size_t num_schemas,
                            const std::vector<LocalModel>& models);

/// Phase III over a sparse model set: `arrived_per_schema[k]` holds the
/// foreign models consumer schema k obtained (each consumer may have a
/// different subset after a faulty exchange). The degradation policy in
/// `options` decides how schemas with missing peers are handled.
/// When `metrics` is non-null the assessment emits per-policy pruning
/// counters: "scoping.kept.<policy>" and "scoping.pruned.<policy>".
Result<std::vector<bool>> AssessAllSparse(
    const SignatureSet& signatures, size_t num_schemas,
    const std::vector<std::vector<LocalModel>>& arrived_per_schema,
    const DegradedOptions& options, obs::MetricsRegistry* metrics = nullptr);

}  // namespace colscope::scoping

#endif  // COLSCOPE_SCOPING_COLLABORATIVE_H_
