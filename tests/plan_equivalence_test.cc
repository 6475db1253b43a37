// The load-bearing correctness test: every optimizer configuration of every
// PRETZEL plan must score exactly like the operator-at-a-time black-box
// execution of the same pipeline, for both workload families.
#include <string>
#include <vector>

#include "src/blackbox/blackbox_model.h"
#include "src/flour/flour.h"
#include "src/oven/model_plan.h"
#include "src/runtime/exec_context.h"
#include "src/workload/ac_workload.h"
#include "src/workload/sa_workload.h"
#include "tests/test_util.h"

using namespace pretzel;

template <typename Workload>
void CheckFamily(const Workload& workload, uint64_t seed,
                 size_t expect_full_stages, bool push_applies) {
  ObjectStore store;
  FlourContext flour(&store);
  VectorPool pool;
  ExecContext ctx(&pool);

  OptimizerOptions full;
  OptimizerOptions no_push = full;
  no_push.enable_linear_push = false;
  OptimizerOptions no_merge = full;
  no_merge.enable_stage_merge = false;
  OptimizerOptions no_inline = full;
  no_inline.enable_inline = false;
  OptimizerOptions none;
  none.enable_linear_push = false;
  none.enable_stage_merge = false;
  none.enable_inline = false;
  const std::vector<OptimizerOptions> configs = {full, no_push, no_merge,
                                                 no_inline, none};

  Rng rng(seed);
  for (const auto& spec : workload.pipelines()) {
    auto model = BlackBoxModel::Load(SaveModelImage(spec), BlackBoxOptions());
    CHECK(model.ok());
    auto program = flour.FromPipeline(spec);

    std::vector<std::shared_ptr<ModelPlan>> plans;
    for (size_t c = 0; c < configs.size(); ++c) {
      CompileOptions copts;
      copts.optimizer = configs[c];
      auto plan = CompilePlan(*program, spec.name, copts);
      CHECK(plan.ok());
      plans.push_back(*plan);
    }
    // The full optimizer collapses the plan; disabling rewrites keeps more
    // stages alive.
    CHECK_EQ(plans[0]->NumStages(), expect_full_stages);
    if (push_applies) {  // The linear push only exists for linear finals.
      CHECK(plans[1]->NumStages() > plans[0]->NumStages());
    }
    CHECK(plans[4]->NumStages() > plans[0]->NumStages());

    for (int i = 0; i < 5; ++i) {
      const std::string input = workload.SampleInput(rng);
      auto expected = (*model)->Predict(input);
      CHECK(expected.ok());
      for (const auto& plan : plans) {
        auto got = ExecutePlan(*plan, input, ctx);
        CHECK(got.ok());
        CHECK_NEAR(*got, *expected, 1e-5);
      }
    }
  }
}

// Binding is pointer setup: a plan's weight and forest views alias the
// interned params, two plans of one program share them, and a plan's own
// bytes do not grow with its parameters.
template <typename Workload>
std::vector<std::shared_ptr<ModelPlan>> CompileBoth(const Workload& workload,
                                                    ObjectStore* store) {
  FlourContext flour(store);
  auto program = flour.FromPipeline(workload.pipelines()[0]);
  std::vector<std::shared_ptr<ModelPlan>> plans;
  for (const char* name : {"first", "second"}) {
    auto plan = Plan(*program, name);
    CHECK(plan.ok());
    plans.push_back(*plan);
  }
  return plans;
}

void CheckBoundViews() {
  size_t text_overhead = 0;
  size_t dense_overhead = 0;
  for (const size_t scale : {1, 8}) {
    SaWorkloadOptions sa_opts;
    sa_opts.num_pipelines = 1;
    sa_opts.char_dict_entries = 300 * scale;
    sa_opts.word_dict_entries = 100 * scale;
    sa_opts.vocabulary_size = 200 * scale;
    ObjectStore store;
    const auto text = CompileBoth(SaWorkload::Generate(sa_opts), &store);
    for (const auto& plan : text) {
      const ModelPlan::BoundText& b = plan->bound_text();
      CHECK(b.char_weights() == b.linear->weights.data());
      CHECK(b.word_weights() == b.linear->weights.data() + b.char_dim);
      CHECK(b.linear->weights.size() >= b.char_dim + b.word_dim);
      CHECK(b.char_dim == 300 * scale && b.word_dim == 100 * scale);
    }
    CHECK(text[0]->bound_text().linear == text[1]->bound_text().linear);
    CHECK(text[0]->bound_text().char_weights() ==
          text[1]->bound_text().char_weights());

    AcWorkloadOptions ac_opts;
    ac_opts.num_pipelines = 1;
    ac_opts.featurizer_trees = 6 * scale;
    ac_opts.final_trees = 4 * scale;
    const auto dense = CompileBoth(AcWorkload::Generate(ac_opts), &store);
    for (const auto& plan : dense) {
      const ModelPlan::BoundDense& b = plan->bound_dense();
      CHECK(b.bound_final.forest == &b.final_forest->forest);
    }
    CHECK(dense[0]->bound_dense().bound_final.forest ==
          dense[1]->bound_dense().bound_final.forest);

    // Eight times the parameters, the same plan-private bytes.
    if (scale == 1) {
      text_overhead = text[0]->OverheadBytes();
      dense_overhead = dense[0]->OverheadBytes();
      CHECK(text_overhead < text[0]->ParameterBytes());
    } else {
      CHECK_EQ(text[0]->OverheadBytes(), text_overhead);
      CHECK_EQ(dense[0]->OverheadBytes(), dense_overhead);
    }
  }

  // A program not lowered through Flour keeps a narrow linear model;
  // the plan's weight views would overrun it, so compile refuses.
  SaWorkloadOptions sa_opts;
  sa_opts.num_pipelines = 1;
  sa_opts.char_dict_entries = 300;
  sa_opts.word_dict_entries = 100;
  sa_opts.vocabulary_size = 200;
  FlourContext flour(nullptr);
  auto program = flour.FromPipeline(SaWorkload::Generate(sa_opts).pipelines()[0]);
  for (auto& op : program->ops) {
    if (op.params->kind() == OpKind::kLinearBinary) {
      auto narrow = std::make_shared<LinearBinaryParams>(
          static_cast<const LinearBinaryParams&>(*op.params));
      narrow->weights.resize(5);
      narrow->Finalize();
      op.params = narrow;
    }
  }
  CHECK(!Plan(*program, "narrow").ok());
  std::printf("bound views alias the interned params: PASS\n");
}

int main() {
  SaWorkloadOptions sa_opts;
  sa_opts.num_pipelines = 8;
  sa_opts.char_dict_entries = 600;
  sa_opts.word_dict_entries = 200;
  sa_opts.vocabulary_size = 400;
  CheckFamily(SaWorkload::Generate(sa_opts), 1234, /*expect_full_stages=*/1,
              /*push_applies=*/true);

  AcWorkloadOptions ac_opts;
  ac_opts.num_pipelines = 6;
  ac_opts.featurizer_trees = 12;
  ac_opts.featurizer_depth = 5;
  ac_opts.final_trees = 8;
  ac_opts.final_depth = 4;
  CheckFamily(AcWorkload::Generate(ac_opts), 5678, /*expect_full_stages=*/2,
              /*push_applies=*/false);

  CheckBoundViews();

  std::printf("plan_equivalence_test: PASS\n");
  return 0;
}
