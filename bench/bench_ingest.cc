// Ingest-path comparison: text records (parsed every request) vs
// BinaryRecord wire inputs (validated, never converted). Three measurements
// per family, all on one thread so the ratios isolate the data path:
//
//   1. Ingest stage alone — dense text parse vs binary validate+alias
//      (records/s). This is the cost the zero-parse format deletes.
//   2. End-to-end batch scoring — ExecutePlanBatch over all-text vs
//      all-binary pools (records/s), where aligned binary payloads alias
//      straight into the per-record kernels (no parse, no staging copy).
//   3. SA end-to-end — per-record text featurize+score vs pre-featurized
//      sparse record validate+score.
//
// Plus a text-vs-binary score parity gate: the one deterministic check, so
// a parity failure exits 1 (the timing checks only print). Results land in
// BENCH_ingest.json for CI archiving.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/common/serialize.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/ops/kernels.h"
#include "src/runtime/exec_context.h"
#include "src/workload/load_gen.h"

using namespace pretzel;

namespace {

std::vector<std::string_view> Views(const std::vector<std::string>& pool) {
  return std::vector<std::string_view>(pool.begin(), pool.end());
}

double RecordsPerSecond(size_t records, int64_t elapsed_ns) {
  return elapsed_ns > 0 ? records * 1e9 / static_cast<double>(elapsed_ns)
                        : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags(argc, argv);
  const size_t ac_pipelines =
      static_cast<size_t>(flags.GetInt("ac_pipelines", 8));
  const size_t sa_pipelines =
      static_cast<size_t>(flags.GetInt("sa_pipelines", 8));
  const size_t num_inputs = static_cast<size_t>(flags.GetInt("inputs", 512));
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 20));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 32));

  PrintHeader("Ingest: zero-parse binary records vs text parsing",
              "stage-level and end-to-end records/s, text vs BinaryRecord");

  AcWorkloadOptions ac_opts = DefaultAcOptions(flags);
  ac_opts.num_pipelines = ac_pipelines;
  const auto ac = AcWorkload::Generate(ac_opts);
  SaWorkloadOptions sa_opts = DefaultSaOptions(flags);
  sa_opts.num_pipelines = sa_pipelines;
  const auto sa = SaWorkload::Generate(sa_opts);

  ObjectStore store;
  FlourContext flour(&store);
  VectorPool pool;
  ExecContext ctx(&pool);
  BenchJson json("ingest");
  json.Add("inputs", static_cast<double>(num_inputs));
  json.Add("reps", static_cast<double>(reps));
  json.Add("batch", static_cast<double>(batch));
  bool ok = true;

  // -------------------------------------------------------------------
  // 1. Dense ingest stage alone: parse vs validate (same sampled values).
  std::printf("\n-- dense ingest stage (AC records, %zu x %zu reps)\n",
              num_inputs, reps);
  const auto text_pool =
      GenerateInputPool(ac, 0, num_inputs, WireFormat::kText, 77);
  std::vector<std::string> binary_pool;
  binary_pool.reserve(text_pool.size());
  for (const auto& text : text_pool) {
    binary_pool.push_back(AcWorkload::BinaryFromText(text));
  }

  std::vector<float> parsed;
  double checksum = 0.0;
  int64_t t0 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    for (const auto& text : text_pool) {
      ParseDenseInput(text, &parsed);
      checksum += parsed.back();
    }
  }
  const int64_t text_parse_ns = NowNs() - t0;

  t0 = NowNs();
  for (size_t r = 0; r < reps; ++r) {
    for (const auto& record : binary_pool) {
      BinaryRecordView view;
      if (ParseBinaryRecord(record, &view).ok() && view.values != nullptr) {
        checksum += view.values[view.dim - 1];
      }
    }
  }
  const int64_t binary_validate_ns = NowNs() - t0;

  const size_t stage_records = num_inputs * reps;
  const double text_parse_rps = RecordsPerSecond(stage_records, text_parse_ns);
  const double binary_validate_rps =
      RecordsPerSecond(stage_records, binary_validate_ns);
  const double ingest_speedup =
      text_parse_rps > 0 ? binary_validate_rps / text_parse_rps : 0.0;
  std::printf("  %-28s %12.0f records/s\n", "text parse", text_parse_rps);
  std::printf("  %-28s %12.0f records/s\n", "binary validate+alias",
              binary_validate_rps);
  std::printf("  ingest speedup: %.2fx  (checksum %g)\n", ingest_speedup,
              checksum);
  json.Add("text_parse_rps", text_parse_rps);
  json.Add("binary_validate_rps", binary_validate_rps);
  json.Add("ingest_speedup", ingest_speedup);
  ok &= ShapeCheck(ingest_speedup >= 2.0,
                   "binary ingest >= 2x text parse on the dense AC mix");

  // -------------------------------------------------------------------
  // 2. Dense end-to-end: batch scoring over all-text vs all-binary pools.
  std::printf("\n-- dense end-to-end batch scoring (batch=%zu)\n", batch);
  const auto text_views = Views(text_pool);
  const auto binary_views = Views(binary_pool);
  std::vector<float> scores(num_inputs, 0.0f);
  double ac_text_rps = 0.0, ac_binary_rps = 0.0;
  {
    auto program = flour.FromPipeline(ac.pipelines()[0]);
    auto plan = Plan(*program, "ingest_ac");
    if (!plan.ok()) {
      std::printf("  compile failed: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    const auto drive = [&](const std::vector<std::string_view>& views) {
      const int64_t start = NowNs();
      for (size_t r = 0; r < reps; ++r) {
        for (size_t begin = 0; begin < views.size(); begin += batch) {
          const size_t n = std::min(batch, views.size() - begin);
          ExecutePlanBatch(**plan, views.data() + begin, n,
                           scores.data() + begin, ctx, nullptr);
        }
      }
      return RecordsPerSecond(stage_records, NowNs() - start);
    };
    ac_text_rps = drive(text_views);
    ac_binary_rps = drive(binary_views);
  }
  const double ac_e2e_speedup =
      ac_text_rps > 0 ? ac_binary_rps / ac_text_rps : 0.0;
  std::printf("  %-28s %12.0f records/s\n", "text batch score", ac_text_rps);
  std::printf("  %-28s %12.0f records/s\n", "binary batch score",
              ac_binary_rps);
  std::printf("  end-to-end speedup: %.2fx\n", ac_e2e_speedup);
  json.Add("ac_e2e_text_rps", ac_text_rps);
  json.Add("ac_e2e_binary_rps", ac_binary_rps);
  json.Add("ac_e2e_speedup", ac_e2e_speedup);
  // Aligned binary payloads alias into the per-record kernels in place, so
  // the binary pool must score no slower than the text pool it skips parsing.
  ok &= ShapeCheck(ac_e2e_speedup >= 1.0,
                   "zero-copy batch gather does not regress dense scoring");

  // -------------------------------------------------------------------
  // 3. SA end-to-end: featurize+score vs pre-featurized sparse records.
  std::printf("\n-- SA end-to-end per-record scoring\n");
  const auto sa_texts =
      GenerateInputPool(sa, 0, num_inputs, WireFormat::kText, 99);
  std::vector<std::string> sa_binaries;
  sa_binaries.reserve(sa_texts.size());
  for (const auto& text : sa_texts) {
    sa_binaries.push_back(sa.BinaryFromText(text, 0));
  }
  double sa_text_rps = 0.0, sa_binary_rps = 0.0;
  {
    auto program = flour.FromPipeline(sa.pipelines()[0]);
    auto plan = Plan(*program, "ingest_sa");
    if (!plan.ok()) {
      std::printf("  compile failed: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    const auto drive = [&](const std::vector<std::string>& inputs) {
      const int64_t start = NowNs();
      for (size_t r = 0; r < reps; ++r) {
        for (const auto& input : inputs) {
          auto result = ExecutePlan(**plan, input, ctx);
          if (result.ok()) {
            checksum += *result;
          }
        }
      }
      return RecordsPerSecond(stage_records, NowNs() - start);
    };
    sa_text_rps = drive(sa_texts);
    sa_binary_rps = drive(sa_binaries);
  }
  const double sa_e2e_speedup =
      sa_text_rps > 0 ? sa_binary_rps / sa_text_rps : 0.0;
  std::printf("  %-28s %12.0f records/s\n", "text featurize+score",
              sa_text_rps);
  std::printf("  %-28s %12.0f records/s\n", "sparse validate+score",
              sa_binary_rps);
  std::printf("  end-to-end speedup: %.2fx\n", sa_e2e_speedup);
  json.Add("sa_e2e_text_rps", sa_text_rps);
  json.Add("sa_e2e_binary_rps", sa_binary_rps);
  json.Add("sa_e2e_speedup", sa_e2e_speedup);

  // -------------------------------------------------------------------
  // 4. Parity gate: both encodings of one sample score identically.
  std::printf("\n-- wire parity gate\n");
  size_t parity_failures = 0;
  {
    auto ac_program = flour.FromPipeline(ac.pipelines()[0]);
    auto ac_plan = Plan(*ac_program, "parity_ac");
    auto sa_program = flour.FromPipeline(sa.pipelines()[0]);
    auto sa_plan = Plan(*sa_program, "parity_sa");
    const size_t checks = std::min<size_t>(num_inputs, 64);
    for (size_t i = 0; i < checks; ++i) {
      auto t = ExecutePlan(**ac_plan, text_pool[i], ctx);
      auto b = ExecutePlan(**ac_plan, binary_pool[i], ctx);
      if (!t.ok() || !b.ok() || std::fabs(*t - *b) > 1e-5) {
        ++parity_failures;
      }
      t = ExecutePlan(**sa_plan, sa_texts[i], ctx);
      b = ExecutePlan(**sa_plan, sa_binaries[i], ctx);
      if (!t.ok() || !b.ok() || std::fabs(*t - *b) > 1e-5) {
        ++parity_failures;
      }
    }
  }
  json.Add("parity_failures", static_cast<double>(parity_failures));
  ok &= ShapeCheck(parity_failures == 0,
                   "binary records score identically to their text twins");

  json.Add("shape_checks_passed", ok ? 1.0 : 0.0);
  json.Write();
  std::printf("\nbench_ingest: %s\n", ok ? "all shape checks passed"
                                         : "SHAPE-CHECK FAILURES (see above)");
  return parity_failures == 0 ? 0 : 1;
}
