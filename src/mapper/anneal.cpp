#include "mapper/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_map>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"

namespace nnbaton {

namespace {

double
scoreOf(const MappingChoice &c, Objective objective)
{
    return objective == Objective::MinEnergy ? c.energy.total()
                                             : c.edp();
}

/** Deterministic per-(layer, config) fingerprint mixed into the
 *  annealing seed so distinct layers walk distinct move sequences. */
uint64_t
layerConfigFingerprint(const ConvLayer &layer,
                       const AcceleratorConfig &cfg)
{
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<uint64_t>(layer.ho) << 32 |
        static_cast<uint32_t>(layer.wo));
    mix(static_cast<uint64_t>(layer.co) << 32 |
        static_cast<uint32_t>(layer.ci));
    mix(static_cast<uint64_t>(layer.kh) << 32 |
        static_cast<uint32_t>(layer.kw));
    mix(static_cast<uint64_t>(layer.stride) << 32 |
        static_cast<uint32_t>(layer.groups));
    mix(static_cast<uint64_t>(cfg.package.chiplets) << 32 |
        static_cast<uint32_t>(cfg.chiplet.cores));
    mix(static_cast<uint64_t>(cfg.core.lanes) << 32 |
        static_cast<uint32_t>(cfg.core.vectorSize));
    mix(static_cast<uint64_t>(cfg.core.ol1Bytes));
    mix(static_cast<uint64_t>(cfg.core.al1Bytes));
    mix(static_cast<uint64_t>(cfg.core.wl1Bytes));
    mix(static_cast<uint64_t>(cfg.chiplet.al2Bytes));
    return h;
}

} // namespace

std::optional<MappingChoice>
searchAnneal(const ConvLayer &layer, const AcceleratorConfig &cfg,
             const TechnologyModel &tech, const CandidateSpace &space,
             Objective objective, const SearchOptions &search,
             SearchStats *stats)
{
    NNBATON_TRACE_SCOPE("mapper.anneal");

    // Deterministic start state, scanned in enumeration order: the
    // first full-lane leaf, else the first legal leaf (so a
    // zero-iteration anneal still returns something legal, and equal
    // seeds walk from equal states).  Like enumerateCandidates(),
    // a layer with any full-lane leaf keeps to that class, so the
    // walk never leaves the exhaustive search's candidate set.
    struct Coord
    {
        size_t subtree = 0, ih = 0, iw = 0, ic = 0, order = 0;
    };
    Coord cur;
    std::optional<CandidateSpace::Leaf> init;
    bool full_lane_only = false;
    for (Coord c; c.subtree < space.size() && !full_lane_only;
         ++c.subtree) {
        const CandidateSpace::Subtree &st = space.subtree(c.subtree);
        for (c.ih = 0; c.ih < st.ladderH.size() && !full_lane_only;
             ++c.ih) {
            for (c.iw = 0; c.iw < st.ladderW.size() && !full_lane_only;
                 ++c.iw) {
                for (c.ic = 0;
                     c.ic < st.ladderC.size() && !full_lane_only;
                     ++c.ic) {
                    for (c.order = 0; c.order < 4 && !full_lane_only;
                         ++c.order) {
                        auto leaf = space.makeLeaf(c.subtree, c.ih, c.iw,
                                                   c.ic, c.order);
                        if (!leaf || (init && !leaf->fullLane))
                            continue;
                        init = std::move(leaf);
                        cur = c;
                        full_lane_only = init->fullLane;
                    }
                }
            }
        }
    }
    if (!init)
        return std::nullopt;

    int64_t evaluated = 0;
    const auto evalLeaf = [&](const CandidateSpace::Leaf &leaf) {
        ++evaluated;
        return evaluateMapping(layer, cfg, tech, leaf.mapping);
    };

    MappingChoice cur_choice = evalLeaf(*init);
    double cur_score = scoreOf(cur_choice, objective);
    MappingChoice best_choice = cur_choice;
    double best_score = cur_score;
    int64_t best_ordinal = init->ordinal;

    // Scores are deterministic per ordinal, so revisited states skip
    // the full C3P evaluation (the evaluated counter stays a count of
    // full analyses, matching the exhaustive search's semantics).
    std::unordered_map<int64_t, double> memo;
    memo.emplace(init->ordinal, cur_score);

    std::mt19937_64 rng(search.annealSeed ^
                        layerConfigFingerprint(layer, cfg));
    std::uniform_real_distribution<double> uniform(0.0, 1.0);

    // Geometric cooling from a tenth of the initial score down three
    // decades across the iteration budget.
    const int iters = std::max(1, search.annealIterations);
    double temp = std::max(cur_score * 0.1, 1e-12);
    const double alpha = std::pow(1e-3, 1.0 / iters);

    const auto step = [&](size_t idx, size_t size, bool up) {
        if (up)
            return idx + 1 < size ? idx + 1 : idx;
        return idx > 0 ? idx - 1 : idx;
    };

    for (int it = 0; it < iters; ++it, temp *= alpha) {
        if ((it & 31) == 0 && search.cancel &&
            search.cancel->cancelled())
            throwStatus(search.cancel->toStatus());

        Coord next = cur;
        const CandidateSpace::Subtree *st =
            &space.subtree(cur.subtree);
        switch (rng() % 5) {
          case 0: {
            next.subtree = static_cast<size_t>(rng() % space.size());
            st = &space.subtree(next.subtree);
            next.ih = std::min(next.ih, st->ladderH.size() - 1);
            next.iw = std::min(next.iw, st->ladderW.size() - 1);
            next.ic = std::min(next.ic, st->ladderC.size() - 1);
            break;
          }
          case 1:
            next.ih = step(next.ih, st->ladderH.size(), rng() & 1);
            break;
          case 2:
            next.iw = step(next.iw, st->ladderW.size(), rng() & 1);
            break;
          case 3:
            next.ic = step(next.ic, st->ladderC.size(), rng() & 1);
            break;
          default:
            next.order = static_cast<size_t>(rng() % 4);
            break;
        }

        const std::optional<CandidateSpace::Leaf> leaf =
            space.makeLeaf(next.subtree, next.ih, next.iw, next.ic,
                           next.order);
        if (!leaf || (full_lane_only && !leaf->fullLane))
            continue; // illegal move; keep cooling

        double score;
        std::optional<MappingChoice> choice;
        if (const auto seen = memo.find(leaf->ordinal);
            seen != memo.end()) {
            score = seen->second;
        } else {
            choice = evalLeaf(*leaf);
            score = scoreOf(*choice, objective);
            memo.emplace(leaf->ordinal, score);
        }

        if (score < best_score ||
            (score == best_score && leaf->ordinal < best_ordinal)) {
            best_choice = choice ? *choice : evalLeaf(*leaf);
            best_score = score;
            best_ordinal = leaf->ordinal;
        }

        const double delta = score - cur_score;
        if (delta <= 0.0 ||
            uniform(rng) < std::exp(-delta / std::max(temp, 1e-300))) {
            cur = next;
            cur_score = score;
        }
    }

    if (stats)
        stats->evaluated += evaluated;
    static obs::Counter &m_evaluated =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.evaluated");
    m_evaluated.add(evaluated);
    return best_choice;
}

} // namespace nnbaton
