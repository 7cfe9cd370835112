/**
 * @file
 * Transformer workload benchmark: BERT-base (sequence 128) and
 * ViT-B/16 (224x224) mapped end to end on the paper's case-study
 * hardware.  Prints the per-model table (energy with its vector-ALU
 * share, runtime, search counters) and writes BENCH_transformer.json
 * for machine consumption (the CI assert step mirrors the
 * BENCH_dse.json pattern).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hpp"
#include "common/table.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

namespace {

double
seconds(std::chrono::steady_clock::time_point from)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - from)
        .count();
}

struct ModelRun
{
    std::string name;
    int batch = 1;
    ModelMappingResult result;
    double elapsed = 0.0;
};

ModelRun
runModel(const Model &model, int batch)
{
    Model scaled = model;
    if (batch > 1)
        scaled.scaleBatch(batch);
    const auto start = std::chrono::steady_clock::now();
    ModelRun run;
    run.result = mapModel(scaled, caseStudyConfig(), defaultTech(),
                          SearchEffort::Fast);
    run.elapsed = seconds(start);
    run.name = model.name();
    run.batch = batch;
    return run;
}

void
writeModelEntry(JsonWriter &j, const ModelRun &run)
{
    const ModelMappingResult &r = run.result;
    j.beginObject();
    j.field("batch", run.batch);
    j.field("feasible", r.feasible);
    j.field("layers", static_cast<int64_t>(r.choices.size()));
    j.field("seconds", run.elapsed);
    j.field("energy_mj", r.cost.energy.total() * 1e-9);
    j.field("vector_energy_mj", r.cost.energy.vector * 1e-9);
    j.field("cycles", r.cost.cycles);
    j.field("evaluated", r.stats.evaluated);
    j.field("pruned", r.stats.pruned);
    j.field("cache_hits", r.stats.cacheHits);
    j.field("cache_misses", r.stats.cacheMisses);
    j.endObject();
}

void
benchTransformers()
{
    std::printf("=== Transformer workloads on the case-study package "
                "===\n\n");
    TextTable t({"model", "batch", "layers", "energy mJ", "vector mJ",
                 "cycles", "map s", "cache hits"});
    std::vector<ModelRun> runs;
    for (int batch : {1, 4}) {
        runs.push_back(runModel(makeBertBase(128), batch));
        runs.push_back(runModel(makeVitB16(224), batch));
    }
    for (const ModelRun &run : runs) {
        const ModelMappingResult &r = run.result;
        t.newRow()
            .add(run.name)
            .add(static_cast<int64_t>(run.batch))
            .add(static_cast<int64_t>(r.choices.size()))
            .add(r.cost.energy.total() * 1e-9, 3)
            .add(r.cost.energy.vector * 1e-9, 4)
            .add(r.cost.cycles)
            .add(run.elapsed, 3)
            .add(r.stats.cacheHits);
    }
    t.print(std::cout);
    std::printf("\nexpected shape: the vector term is a small, "
                "nonzero slice (softmax only), weight-bound FFN "
                "GEMMs dominate energy, and the 12 identical "
                "encoders turn into cache hits.\n\n");

    std::ofstream out("BENCH_transformer.json");
    JsonWriter j(out);
    j.beginObject();
    j.key("models").beginObject();
    for (const ModelRun &run : runs) {
        j.key(run.name + (run.batch > 1
                              ? "@b" + std::to_string(run.batch)
                              : std::string()));
        writeModelEntry(j, run);
    }
    j.endObject();
    j.endObject();
    out << "\n";
    std::printf("wrote BENCH_transformer.json\n\n");
}

void
BM_MapBertBase128(benchmark::State &state)
{
    const Model model = makeBertBase(128);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapModel(model, caseStudyConfig(),
                                          defaultTech(),
                                          SearchEffort::Fast));
    }
}
BENCHMARK(BM_MapBertBase128)->Unit(benchmark::kMillisecond);

void
BM_MapVitB16(benchmark::State &state)
{
    const Model model = makeVitB16(224);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapModel(model, caseStudyConfig(),
                                          defaultTech(),
                                          SearchEffort::Fast));
    }
}
BENCHMARK(BM_MapVitB16)->Unit(benchmark::kMillisecond);

void
BM_SearchAttentionScores(benchmark::State &state)
{
    // The head-folded softmax GEMM: batch 12, postops 3.
    const Model bert = makeBertBase(128);
    const ConvLayer layer = bert.layer("enc1_attn_scores");
    for (auto _ : state) {
        benchmark::DoNotOptimize(searchLayer(layer, caseStudyConfig(),
                                             defaultTech(),
                                             SearchEffort::Fast));
    }
}
BENCHMARK(BM_SearchAttentionScores)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // --models-only: the table + BENCH_transformer.json without the
    // google-benchmark timing loops (the CI assert step).
    bool models_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--models-only")
            models_only = true;
    }
    benchTransformers();
    if (models_only)
        return 0;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
