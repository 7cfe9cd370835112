#include "mapper/candidates.hpp"

#include <algorithm>
#include <optional>

#include "common/logging.hpp"
#include "common/util.hpp"

namespace nnbaton {

namespace {

/** Spatial skeleton of a candidate before temporal choices. */
struct Skeleton
{
    PackagePartition pkg;
    PlanarSplit pkgSplit;
    ChipletPartition chip;
    int cw;
    PlanarSplit chipSplit;
};

std::vector<Skeleton>
enumerateSkeletons(const ConvLayer &layer, const AcceleratorConfig &cfg,
                   SearchEffort effort,
                   std::optional<PackagePartition> pkg_filter,
                   std::optional<ChipletPartition> chip_filter)
{
    const int np = cfg.package.chiplets;
    const int nc = cfg.chiplet.cores;

    // Package-level options.
    struct PkgOpt
    {
        PackagePartition pkg;
        PlanarSplit split;
    };
    std::vector<PkgOpt> pkg_opts;
    if (!pkg_filter || *pkg_filter == PackagePartition::Channel)
        pkg_opts.push_back({PackagePartition::Channel, {1, 1}});
    if (np > 1 &&
        (!pkg_filter || *pkg_filter == PackagePartition::Plane)) {
        auto splits = enumerateSplits(np, layer.ho, layer.wo);
        const size_t keep =
            effort == SearchEffort::Exhaustive ? splits.size()
            : effort == SearchEffort::Fast     ? 2
                                               : 1;
        if (splits.size() > keep)
            splits.resize(keep);
        for (const auto &sp : splits)
            pkg_opts.push_back({PackagePartition::Plane, sp});
    }

    // Chiplet-level options.
    struct ChipOpt
    {
        ChipletPartition chip;
        int cw;
        PlanarSplit split;
    };
    std::vector<ChipOpt> chip_opts;
    auto want_chip = [&](ChipletPartition c) {
        return !chip_filter || *chip_filter == c;
    };
    if (want_chip(ChipletPartition::Channel))
        chip_opts.push_back({ChipletPartition::Channel, nc, {1, 1}});
    if (nc > 1 && want_chip(ChipletPartition::Plane)) {
        auto splits = enumerateSplits(nc, layer.ho, layer.wo);
        const size_t keep =
            effort == SearchEffort::Exhaustive ? splits.size()
            : effort == SearchEffort::Fast     ? 2
                                               : 1;
        if (splits.size() > keep)
            splits.resize(keep);
        for (const auto &sp : splits)
            chip_opts.push_back({ChipletPartition::Plane, 1, sp});
    }
    if (nc > 3 && want_chip(ChipletPartition::Hybrid)) {
        // Sketch keeps only the most balanced channel/plane split.
        std::vector<int> cws;
        for (int cw : divisors(nc)) {
            if (cw >= 2 && cw < nc)
                cws.push_back(cw);
        }
        if (effort == SearchEffort::Sketch && cws.size() > 1)
            cws = {cws[cws.size() / 2]};
        for (int cw : cws) {
            const int pw = nc / cw;
            auto splits = enumerateSplits(pw, layer.ho, layer.wo);
            if (splits.empty())
                continue;
            size_t take = effort == SearchEffort::Exhaustive
                              ? std::min<size_t>(2, splits.size())
                              : 1;
            for (size_t i = 0; i < take && i < splits.size(); ++i) {
                chip_opts.push_back(
                    {ChipletPartition::Hybrid, cw, splits[i]});
            }
        }
    }

    std::vector<Skeleton> out;
    for (const auto &po : pkg_opts) {
        for (const auto &co : chip_opts) {
            out.push_back(
                {po.pkg, po.split, co.chip, co.cw, co.split});
        }
    }
    return out;
}

/** Power-of-two values up to @p limit (always includes limit). */
std::vector<int>
pow2Ladder(int limit, SearchEffort effort)
{
    std::vector<int> out;
    for (int v = 1; v < limit; v *= 2)
        out.push_back(v);
    out.push_back(limit);
    if (effort == SearchEffort::Sketch && out.size() > 2)
        return {out.front(), out.back()};
    if (effort == SearchEffort::Fast && out.size() > 3) {
        // Keep 1, a mid rung and the limit.
        std::vector<int> fast{out.front(), out[out.size() / 2],
                              out.back()};
        return fast;
    }
    return out;
}

/** Candidate (hoC, woC) core-tile planes respecting O-L1 and A-L1. */
std::vector<std::pair<int, int>>
coreTilePlanes(const ConvLayer &layer, const AcceleratorConfig &cfg,
               SearchEffort effort)
{
    const int64_t max_plane = cfg.core.maxCoreTilePlane(24);
    std::vector<std::pair<int, int>> out;
    auto fits_al1 = [&](int h, int w) {
        const int64_t need =
            static_cast<int64_t>(inputExtent(h, layer.kh, layer.stride)) *
            inputExtent(w, layer.kw, layer.stride) *
            std::min(cfg.core.vectorSize, layer.ciPerGroup());
        return need <= cfg.core.al1Bytes;
    };
    for (int h = 1; h <= std::min(layer.ho, 64); h *= 2) {
        for (int w : {h, h / 2, h * 2, 1}) {
            if (w < 1 || w > std::min(layer.wo, 64))
                continue;
            if (static_cast<int64_t>(h) * w > max_plane)
                continue;
            if (!fits_al1(h, w))
                continue;
            if (std::find(out.begin(), out.end(),
                          std::make_pair(h, w)) == out.end()) {
                out.emplace_back(h, w);
            }
        }
    }
    if (out.empty())
        return out;
    // Largest tiles first: fewer, bigger tiles amortise loads better.
    std::sort(out.begin(), out.end(), [](auto a, auto b) {
        return a.first * a.second > b.first * b.second;
    });
    const size_t cap = effort == SearchEffort::Exhaustive ? 8
                       : effort == SearchEffort::Fast     ? 3
                                                          : 2;
    if (out.size() > cap)
        out.resize(cap);
    return out;
}

/** The two loop orders, channel priority first. */
constexpr LoopOrder kOrders[] = {LoopOrder::ChannelPriority,
                                 LoopOrder::PlanePriority};

/** enumerateCandidates(), kept to the given package and chiplet
 *  partition primitives when they are set. */
std::vector<Mapping>
collectCandidates(const ConvLayer &layer, const AcceleratorConfig &cfg,
                  SearchEffort effort,
                  std::optional<PackagePartition> pkg_filter,
                  std::optional<ChipletPartition> chip_filter)
{
    std::vector<Mapping> full, degraded;
    const auto skeletons = enumerateSkeletons(layer, cfg, effort,
                                              pkg_filter, chip_filter);
    const auto planes = coreTilePlanes(layer, cfg, effort);
    for (const auto &sk : skeletons) {
        // Macro workload per chiplet under this package split.
        const WorkShape macro{
            sk.pkg == PackagePartition::Plane
                ? static_cast<int>(ceilDiv(layer.ho, sk.pkgSplit.fh))
                : layer.ho,
            sk.pkg == PackagePartition::Plane
                ? static_cast<int>(ceilDiv(layer.wo, sk.pkgSplit.fw))
                : layer.wo,
            sk.pkg == PackagePartition::Channel
                ? static_cast<int>(
                      ceilDiv(layer.co, cfg.package.chiplets))
                : layer.co};
        for (auto [hoc, woc] : planes) {
            // Chiplet tiles grow from the core split in power-of-two
            // steps along the plane and in lane multiples along CO:
            // tile = min(base * rung, macro).
            const int base_h = hoc * sk.chipSplit.fh;
            const int base_w = woc * sk.chipSplit.fw;
            const int base_c = cfg.core.lanes * sk.cw;
            const auto ladder_h =
                pow2Ladder(std::max(1, macro.ho / base_h), effort);
            const auto ladder_w =
                pow2Ladder(std::max(1, macro.wo / base_w), effort);
            const auto ladder_c =
                pow2Ladder(std::max(1, macro.co / base_c), effort);
            Mapping m;
            m.pkgSpatial = sk.pkg;
            m.pkgSplit = sk.pkgSplit;
            m.chipSpatial = sk.chip;
            m.chipChannelWays = sk.cw;
            m.chipSplit = sk.chipSplit;
            m.hoC = hoc;
            m.woC = woc;
            for (int rh : ladder_h) {
                for (int rw : ladder_w) {
                    for (int rc : ladder_c) {
                        m.chipletTile = {std::min(base_h * rh, macro.ho),
                                         std::min(base_w * rw, macro.wo),
                                         std::min(base_c * rc, macro.co)};
                        for (LoopOrder pkg_order : kOrders) {
                            for (LoopOrder chip_order : kOrders) {
                                m.pkgOrder = pkg_order;
                                m.chipOrder = chip_order;
                                MappingShapes sh;
                                if (!checkMapping(layer, cfg, m, sh)
                                         .empty())
                                    continue;
                                (sh.coreMacro.co >= cfg.core.lanes
                                     ? full
                                     : degraded)
                                    .push_back(m);
                            }
                        }
                    }
                }
            }
        }
    }
    // Prefer candidates that fill the lanes; fall back when the layer
    // is too narrow for any to exist.
    return full.empty() ? degraded : full;
}

} // namespace

std::vector<Mapping>
enumerateCandidates(const ConvLayer &layer, const AcceleratorConfig &cfg,
                    SearchEffort effort)
{
    return collectCandidates(layer, cfg, effort, std::nullopt,
                             std::nullopt);
}

std::vector<Mapping>
enumerateCandidatesFor(const ConvLayer &layer,
                       const AcceleratorConfig &cfg, SearchEffort effort,
                       PackagePartition pkg, ChipletPartition chip)
{
    return collectCandidates(layer, cfg, effort, pkg, chip);
}

} // namespace nnbaton
