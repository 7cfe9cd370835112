/**
 * @file
 * NN-Baton public facade: the pre-design and post-design flows of
 * paper figure 9.
 *
 * - PostDesignFlow: given a fixed hardware configuration, produce the
 *   per-layer mapping strategy (spatial partition dimension and
 *   pattern, temporal loop order and counts) plus energy/runtime
 *   reports usable by a hardware compiler.
 * - PreDesignFlow: given MAC-count and area budgets, sweep the design
 *   space and recommend the chiplet granularity and the computation /
 *   memory allocation.
 *
 * Quickstart:
 * @code
 *   using namespace nnbaton;
 *   Model model = makeResNet50(224);
 *   PostDesignFlow post(caseStudyConfig());
 *   PostDesignReport report = post.run(model);
 *   std::cout << report.toString();
 * @endcode
 */

#ifndef NNBATON_BATON_BATON_HPP
#define NNBATON_BATON_BATON_HPP

#include <string>
#include <vector>

#include "arch/area.hpp"
#include "dse/explorer.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "simba/simba.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/** Post-design flow output for one model. */
struct PostDesignReport
{
    std::string modelName;
    AcceleratorConfig config;
    ModelCost cost;
    std::vector<MappingChoice> mappings; //!< per layer, model order
    SearchStats stats;   //!< work counters for this run (not exported)
    bool feasible = true;
    double clockGhz = 0.5; //!< core clock used for runtime reporting,
                           //!< taken from the TechnologyModel

    /** Multi-line human-readable mapping strategy table. */
    std::string toString() const;
};

/** The post-design flow: workload orchestration on fixed hardware. */
class PostDesignFlow
{
  public:
    explicit PostDesignFlow(AcceleratorConfig cfg,
                            const TechnologyModel &tech = defaultTech(),
                            SearchEffort effort = SearchEffort::Exhaustive,
                            Objective objective = Objective::MinEnergy,
                            const SearchOptions &search = {})
        : cfg_(std::move(cfg)), tech_(tech), effort_(effort),
          objective_(objective), search_(search)
    {
        cfg_.validate();
    }

    /**
     * Map every layer of @p model and report.  When @p cache is
     * non-null, exhaustive searches draw their candidates from its
     * shared (thread-safe) memory-axis tables, so a long-lived caller
     * — the serving daemon — enumerates a shape's candidates once
     * across runs; search results are never kept across runs, and
     * they are identical either way.
     */
    PostDesignReport run(const Model &model,
                         MappingCache *cache = nullptr) const;

    /** Map a single layer. */
    std::optional<MappingChoice> runLayer(const ConvLayer &layer) const;

    const AcceleratorConfig &config() const { return cfg_; }

  private:
    AcceleratorConfig cfg_;
    const TechnologyModel &tech_;
    SearchEffort effort_;
    Objective objective_;
    SearchOptions search_; //!< pruning and cancellation
};

/** Pre-design flow output. */
struct PreDesignReport
{
    DseResult sweep;
    std::optional<DesignPoint> recommended; //!< min-EDP valid design

    /** Human-readable recommendation plus sweep statistics. */
    std::string toString() const;
};

/** The pre-design flow: chiplet-granularity exploration. */
class PreDesignFlow
{
  public:
    explicit PreDesignFlow(DseOptions options,
                           const TechnologyModel &tech = defaultTech())
        : options_(options), tech_(tech)
    {
    }

    /** Sweep the space for @p model and recommend a design. */
    PreDesignReport run(const Model &model) const;

    const DseOptions &options() const { return options_; }

  private:
    DseOptions options_;
    const TechnologyModel &tech_;
};

/** Simba-vs-NN-Baton comparison for one model (figure 13). */
struct ComparisonReport
{
    std::string modelName;
    EnergyBreakdown batonEnergy;
    EnergyBreakdown simbaEnergy;

    /** 1 - baton/simba, the paper's headline savings metric. */
    double savings() const
    {
        return 1.0 - batonEnergy.total() / simbaEnergy.total();
    }
};

/** Run both tools on the same configuration and compare. */
ComparisonReport compareWithSimba(const Model &model,
                                  const AcceleratorConfig &cfg,
                                  const TechnologyModel &tech =
                                      defaultTech());

} // namespace nnbaton

#endif // NNBATON_BATON_BATON_HPP
