/**
 * @file
 * Stage replays: the searches a workload ran, repeated on a seeded
 * sample of its (layer, configuration) pairs with a span around each
 * module call -- searchLayer, enumerateCandidates and, on every
 * candidate, scoreLowerBound, analyzeMapping, computeEnergy and
 * estimateRuntime.  The same pairs are also searched on two lanes at
 * Exhaustive effort, the search the CLI `post` runs by default, to
 * see how busy the mapper keeps its lanes.  Timed apart from the
 * traced end-to-end pass.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"

namespace perfbench {

/** One searched (layer, configuration) pair. */
struct SearchPair
{
    nnbaton::ConvLayer layer;
    nnbaton::AcceleratorConfig config;
    std::string shape; //!< label of the layer shape ("model/layer HxW ...")
};

/**
 * The distinct (shape, configuration) pairs that mapping @p model on
 * each of @p configs searches (repeated shapes are cache reads).
 */
std::vector<SearchPair>
searchedPairs(const nnbaton::Model &model,
              const std::vector<nnbaton::AcceleratorConfig> &configs);

/** A seeded sample of at most @p count of @p pairs. */
std::vector<SearchPair> samplePairs(std::vector<SearchPair> pairs,
                                    size_t count, uint64_t seed);

/** What the replays measured, by stage. */
struct ReplayStats
{
    int64_t searches = 0;
    double searchNs = 0.0;
    int64_t searchCandidates = 0; //!< evaluated + pruned in the replays
    int64_t enumerations = 0;
    double enumerateNs = 0.0;
    int64_t candidates = 0;
    int64_t replayed = 0; //!< candidates the per-candidate stages ran on
    double boundNs = 0.0;
    double analyzeNs = 0.0;
    double energyNs = 0.0;
    double runtimeNs = 0.0;
    double laneBusyRatio = 0.0; //!< two-lane search CPU / (2 x wall)
    std::map<std::string, double> searchNsByShape;
};

/** Replay every stage on @p pairs, searching as the workload did. */
ReplayStats replayStages(const std::vector<SearchPair> &pairs,
                         nnbaton::SearchEffort effort,
                         nnbaton::Objective objective);

/** Add the mapper/c3p/cost/sim stage metrics of @p stats. */
void addStageMetrics(RunResult &result, const ReplayStats &stats);

/** Print the five shapes with the most searchLayer time and their
 *  share of it (ROADMAP item 1's per-DNN-layer attribution). */
void printTopShapes(const std::string &workload, const ReplayStats &stats);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
