// Microbenchmarks for the Section 3 "Computational Complexity" analysis
// (google-benchmark). The headline comparison: global scoping's ODA cost
// grows with the quadratic size of the *union* signature set |S|^2,
// while collaborative scoping pays the sum of per-schema quadratics
// (|S_1|^2 + ... + |S_k|^2) plus |S| * |M| reconstruction passes — so it
// gets relatively cheaper as the number of schemas grows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "embed/hashed_encoder.h"
#include "linalg/pca.h"
#include "linalg/svd.h"
#include "linalg/truncated_svd.h"
#include "matching/flat_index.h"
#include "matching/ivf_index.h"
#include "matching/lsh_matcher.h"
#include "matching/sim.h"
#include "obs/flight_recorder.h"
#include "outlier/lof.h"
#include "outlier/pca_oda.h"
#include "outlier/zscore.h"
#include "schema/schema.h"
#include "schema/schema_set.h"
#include "scoping/collaborative.h"
#include "scoping/scoping.h"
#include "scoping/signatures.h"

namespace {

using namespace colscope;

/// Deterministic synthetic schema: `attrs` attributes spread over
/// `attrs / 8 + 1` tables, names drawn from composable token pools so
/// signatures get realistic shared structure.
schema::Schema SyntheticSchema(int index, size_t attrs) {
  static const char* kEntities[] = {"customer", "order",   "product",
                                    "shipment", "invoice", "store",
                                    "employee", "payment"};
  static const char* kFields[] = {"id",     "name",   "date",   "status",
                                  "amount", "city",   "street", "country",
                                  "email",  "phone",  "price",  "quantity",
                                  "code",   "number", "type",   "comment"};
  schema::Schema out(StrFormat("SYN%d", index));
  const size_t num_tables = attrs / 8 + 1;
  size_t made = 0;
  for (size_t t = 0; t < num_tables && made < attrs; ++t) {
    schema::Table table;
    table.name = StrFormat("%s_%d_%zu", kEntities[(index + t) % 8], index, t);
    for (size_t a = 0; a < 8 && made < attrs; ++a, ++made) {
      schema::Attribute attr;
      attr.name = StrFormat("%s_%s", kEntities[(index + made) % 8],
                            kFields[made % 16]);
      attr.table_name = table.name;
      attr.raw_type = (made % 3 == 0) ? "INT" : "VARCHAR";
      attr.type = schema::ParseDataType(attr.raw_type);
      if (a == 0) attr.constraint = schema::Constraint::kPrimaryKey;
      table.attributes.push_back(std::move(attr));
    }
    out.AddTable(std::move(table)).ok();
  }
  return out;
}

scoping::SignatureSet SyntheticSignatures(size_t num_schemas,
                                          size_t attrs_per_schema) {
  std::vector<schema::Schema> schemas;
  for (size_t s = 0; s < num_schemas; ++s) {
    schemas.push_back(SyntheticSchema(static_cast<int>(s), attrs_per_schema));
  }
  schema::SchemaSet set(std::move(schemas));
  static const embed::HashedLexiconEncoder* const kEncoder =
      new embed::HashedLexiconEncoder();
  return scoping::BuildSignatures(set, *kEncoder);
}

// --- Encoder -----------------------------------------------------------------

void BM_EncodeSignature(benchmark::State& state) {
  const embed::HashedLexiconEncoder encoder;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(
        (i++ % 2) == 0 ? "CUSTOMER_ID ORDERS NUMBER FOREIGN KEY"
                       : "CUSTOMERS [CUSTOMER_ID, EMAIL_ADDRESS, FULL_NAME]"));
  }
}
BENCHMARK(BM_EncodeSignature);

// --- Linear algebra -------------------------------------------------------------

void BM_ThinSvd(benchmark::State& state) {
  const auto sig = SyntheticSignatures(1, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::ThinSvd(sig.signatures));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ThinSvd)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);

void BM_TruncatedSvd(benchmark::State& state) {
  const auto sig = SyntheticSignatures(1, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::TruncatedSvd(sig.signatures, 16));
  }
}
BENCHMARK(BM_TruncatedSvd)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_FitLocalModel(benchmark::State& state) {
  const auto sig = SyntheticSignatures(1, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scoping::LocalModel::Fit(sig.signatures, 0.8, 0));
  }
}
BENCHMARK(BM_FitLocalModel)->Arg(40)->Arg(120)->Unit(benchmark::kMillisecond);

// --- ODA baselines (global scoping cost, |S|^2 growth) ----------------------------

void BM_GlobalScoping_Zscore(benchmark::State& state) {
  const auto sig = SyntheticSignatures(state.range(0), 48);
  const outlier::ZScoreDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scoping::GlobalScoping(sig, detector, 0.5));
  }
}
BENCHMARK(BM_GlobalScoping_Zscore)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GlobalScoping_Lof(benchmark::State& state) {
  const auto sig = SyntheticSignatures(state.range(0), 48);
  const outlier::LofDetector detector(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scoping::GlobalScoping(sig, detector, 0.5));
  }
}
BENCHMARK(BM_GlobalScoping_Lof)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GlobalScoping_Pca(benchmark::State& state) {
  const auto sig = SyntheticSignatures(state.range(0), 48);
  const outlier::PcaDetector detector(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scoping::GlobalScoping(sig, detector, 0.5));
  }
}
BENCHMARK(BM_GlobalScoping_Pca)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- Collaborative scoping (sum of per-schema quadratics) --------------------------

void BM_FitLocalModelsOnPool(benchmark::State& state) {
  const size_t num_schemas = state.range(0);
  const auto sig = SyntheticSignatures(num_schemas, 48);
  ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scoping::FitLocalModelsOnPool(sig, num_schemas, 0.8, pool));
  }
}
BENCHMARK(BM_FitLocalModelsOnPool)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CollaborativeScoping(benchmark::State& state) {
  const size_t num_schemas = state.range(0);
  const auto sig = SyntheticSignatures(num_schemas, 48);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scoping::CollaborativeScoping(sig, num_schemas, 0.8));
  }
}
BENCHMARK(BM_CollaborativeScoping)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- Matching search-space costs ------------------------------------------------

void BM_SimMatcher(benchmark::State& state) {
  const auto sig = SyntheticSignatures(3, state.range(0));
  const matching::SimMatcher matcher(0.6);
  const std::vector<bool> all(sig.size(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(sig, all));
  }
}
BENCHMARK(BM_SimMatcher)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_LshMatcher(benchmark::State& state) {
  const auto sig = SyntheticSignatures(3, state.range(0));
  const matching::LshMatcher matcher(5);
  const std::vector<bool> all(sig.size(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(sig, all));
  }
}
BENCHMARK(BM_LshMatcher)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_LshMatcher_Approximate(benchmark::State& state) {
  const auto sig = SyntheticSignatures(3, state.range(0));
  const matching::LshMatcher matcher(5, /*approximate=*/true);
  const std::vector<bool> all(sig.size(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(sig, all));
  }
}
BENCHMARK(BM_LshMatcher_Approximate)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// --- Quantized flat-index recall-vs-speed sweep ------------------------------

// The exact/quantized pair below sweeps the same corpus sizes so their
// per-size timings line up into a recall-vs-speed curve: the quantized
// run reports its recall@10 against the exact top-10 as a counter, and
// the wall-time ratio at each Arg is the speed side of the tradeoff.

std::vector<linalg::Vector> AllRowQueries(const scoping::SignatureSet& sig) {
  std::vector<linalg::Vector> queries;
  queries.reserve(sig.size());
  for (size_t r = 0; r < sig.size(); ++r) {
    const double* row = sig.signatures.RowPtr(r);
    queries.emplace_back(row, row + sig.signatures.cols());
  }
  return queries;
}

void BM_FlatIndexExact(benchmark::State& state) {
  const auto sig = SyntheticSignatures(3, state.range(0));
  const matching::FlatL2Index index(sig.signatures);
  const auto queries = AllRowQueries(sig);
  for (auto _ : state) {
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(index.Search(q, 10));
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_FlatIndexExact)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FlatIndexQuantized(benchmark::State& state) {
  const auto sig = SyntheticSignatures(3, state.range(0));
  const matching::FlatL2Index exact(sig.signatures);
  const matching::FlatL2Index quant(
      sig.signatures, matching::FlatL2Index::Options{.quantized = true});
  const auto queries = AllRowQueries(sig);
  for (auto _ : state) {
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(quant.Search(q, 10));
    }
  }
  size_t hits = 0, total = 0;
  for (const auto& q : queries) {
    const auto want = exact.Search(q, 10);
    const auto got = quant.Search(q, 10);
    for (size_t id : want) {
      if (std::find(got.begin(), got.end(), id) != got.end()) ++hits;
    }
    total += want.size();
  }
  state.counters["recall_at_10"] =
      total == 0 ? 1.0 : static_cast<double>(hits) / total;
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_FlatIndexQuantized)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// --- IVF sub-linear search ----------------------------------------------------

// Same corpus sizes as the flat pair above, so the three curves overlay
// directly: the IVF run reports its recall@10 against the exact flat
// top-10 plus the mean probed fraction as counters, and its per-Arg
// wall time shows where sub-linear probing overtakes brute force.

void BM_IvfIndexSearch(benchmark::State& state) {
  const auto sig = SyntheticSignatures(3, state.range(0));
  const matching::FlatL2Index exact(sig.signatures);
  const matching::IvfIndex ivf(sig.signatures);  // auto sqrt(n), nprobe 8.
  const auto queries = AllRowQueries(sig);
  for (auto _ : state) {
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(ivf.Search(q, 10));
    }
  }
  size_t hits = 0, total = 0, probed = 0;
  for (const auto& q : queries) {
    const auto want = exact.Search(q, 10);
    const auto got = ivf.Search(q, 10);
    for (size_t id : want) {
      if (std::find(got.begin(), got.end(), id) != got.end()) ++hits;
    }
    total += want.size();
    probed += ivf.ProbedRows(q, 10, ivf.nprobe());
  }
  state.counters["recall_at_10"] =
      total == 0 ? 1.0 : static_cast<double>(hits) / total;
  state.counters["probe_fraction"] =
      static_cast<double>(probed) /
      (static_cast<double>(queries.size()) * ivf.size());
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_IvfIndexSearch)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_IvfMatcher(benchmark::State& state) {
  const auto sig = SyntheticSignatures(3, state.range(0));
  const matching::IvfMatcher matcher({});
  const std::vector<bool> all(sig.size(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(sig, all));
  }
}
BENCHMARK(BM_IvfMatcher)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// --- Observability hot-path costs --------------------------------------------

// The flight recorder sits on every RPC/fetch/retry path, so one Record
// must stay in the tens-of-nanoseconds range: a ticket fetch_add plus
// two bounded memcpys, no locks, no allocation.
void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder(256);
  int i = 0;
  for (auto _ : state) {
    recorder.Record("rpc",
                    (i++ & 1) ? "assign worker=0 ok"
                              : "get_model publisher=1 consumer=0 ok");
  }
  benchmark::DoNotOptimize(recorder.total_recorded());
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_FlightRecorderSnapshot(benchmark::State& state) {
  obs::FlightRecorder recorder(256);
  for (int i = 0; i < 512; ++i) {
    recorder.Record("rpc", "assign worker=0 ok");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder.Snapshot());
  }
}
BENCHMARK(BM_FlightRecorderSnapshot);

}  // namespace

BENCHMARK_MAIN();
