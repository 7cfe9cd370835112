#include "dataflow/mapping.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "common/util.hpp"

namespace nnbaton {

const char *
toString(PackagePartition p)
{
    switch (p) {
      case PackagePartition::Channel:
        return "C";
      case PackagePartition::Plane:
        return "P";
    }
    panic("bad PackagePartition");
}

const char *
toString(ChipletPartition p)
{
    switch (p) {
      case ChipletPartition::Channel:
        return "C";
      case ChipletPartition::Plane:
        return "P";
      case ChipletPartition::Hybrid:
        return "H";
    }
    panic("bad ChipletPartition");
}

const char *
toString(LoopOrder o)
{
    switch (o) {
      case LoopOrder::ChannelPriority:
        return "CP";
      case LoopOrder::PlanePriority:
        return "PP";
    }
    panic("bad LoopOrder");
}

std::string
Mapping::spatialLabel() const
{
    return strprintf("(%s,%s)", nnbaton::toString(pkgSpatial),
                     nnbaton::toString(chipSpatial));
}

std::string
Mapping::toString() const
{
    return strprintf("%s T(%dx%dx%d) c(%dx%d) %s/%s pkg%s chip%s cw%d",
                     spatialLabel().c_str(), chipletTile.ho, chipletTile.wo,
                     chipletTile.co, hoC, woC,
                     nnbaton::toString(pkgOrder),
                     nnbaton::toString(chipOrder), pkgSplit.toString().c_str(),
                     chipSplit.toString().c_str(), chipChannelWays);
}

MappingShapes
deriveShapes(const ConvLayer &layer, const AcceleratorConfig &cfg,
             const Mapping &m)
{
    MappingShapes s;
    s.batchTrips = layer.batch;
    const int np = cfg.package.chiplets;

    // 1. Package spatial: chiplet macro workload.
    if (m.pkgSpatial == PackagePartition::Channel) {
        s.chipletMacro = {layer.ho, layer.wo,
                          static_cast<int>(ceilDiv(layer.co, np))};
    } else {
        if (m.pkgSplit.parts() != np) {
            throwStatus(errInvalidArgument(
                "package split %s does not cover %d chiplets",
                m.pkgSplit.toString().c_str(), np));
        }
        s.chipletMacro = {static_cast<int>(ceilDiv(layer.ho, m.pkgSplit.fh)),
                          static_cast<int>(ceilDiv(layer.wo, m.pkgSplit.fw)),
                          layer.co};
    }

    // 2. Package temporal: chiplet tile, clamped to the macro workload.
    s.chipletTile = {std::min(m.chipletTile.ho, s.chipletMacro.ho),
                     std::min(m.chipletTile.wo, s.chipletMacro.wo),
                     std::min(m.chipletTile.co, s.chipletMacro.co)};
    s.pkgTripsH =
        static_cast<int>(ceilDiv(s.chipletMacro.ho, s.chipletTile.ho));
    s.pkgTripsW =
        static_cast<int>(ceilDiv(s.chipletMacro.wo, s.chipletTile.wo));
    s.pkgTripsC =
        static_cast<int>(ceilDiv(s.chipletMacro.co, s.chipletTile.co));

    // 3. Chiplet spatial: the core macro workload.
    const int cw = m.chipChannelWays;
    const int pw = m.chipSplit.parts();
    s.coreMacro = {static_cast<int>(ceilDiv(s.chipletTile.ho, m.chipSplit.fh)),
                   static_cast<int>(ceilDiv(s.chipletTile.wo, m.chipSplit.fw)),
                   static_cast<int>(ceilDiv(s.chipletTile.co, cw))};
    if (cw * pw != cfg.chiplet.cores) {
        throwStatus(errInvalidArgument(
            "chiplet split cw=%d x pw=%d != %d cores", cw, pw,
            cfg.chiplet.cores));
    }

    // 4. Chiplet temporal: core tiles of hoC x woC x L.
    s.coreTile = {std::min(m.hoC, s.coreMacro.ho),
                  std::min(m.woC, s.coreMacro.wo),
                  std::min(cfg.core.lanes, s.coreMacro.co)};
    s.chipTripsH = static_cast<int>(ceilDiv(s.coreMacro.ho, s.coreTile.ho));
    s.chipTripsW = static_cast<int>(ceilDiv(s.coreMacro.wo, s.coreTile.wo));
    s.chipTripsC = static_cast<int>(ceilDiv(s.coreMacro.co, s.coreTile.co));
    return s;
}

std::string
checkMapping(const ConvLayer &layer, const AcceleratorConfig &cfg,
             const Mapping &m, int psum_bits)
{
    MappingShapes shapes;
    return checkMapping(layer, cfg, m, shapes, psum_bits);
}

std::string
checkMapping(const ConvLayer &layer, const AcceleratorConfig &cfg,
             const Mapping &m, MappingShapes &s, int psum_bits)
{
    const int np = cfg.package.chiplets;
    const int nc = cfg.chiplet.cores;
    const int cw = m.chipChannelWays;
    const int pw = m.chipSplit.parts();

    // Spatial primitives must cover the parallel units exactly.
    if (m.pkgSpatial == PackagePartition::Plane) {
        if (m.pkgSplit.parts() != np)
            return "package planar split does not cover the chiplets";
        if (m.pkgSplit.fh > layer.ho || m.pkgSplit.fw > layer.wo)
            return "package planar split exceeds the output plane";
    } else {
        if (layer.co < np)
            return "fewer output channels than chiplets for C-type";
    }

    if (cw * pw != nc)
        return "chiplet split does not cover the cores";
    switch (m.chipSpatial) {
      case ChipletPartition::Channel:
        if (pw != 1)
            return "C-type chiplet split must have pw == 1";
        break;
      case ChipletPartition::Plane:
        if (cw != 1)
            return "P-type chiplet split must have cw == 1";
        break;
      case ChipletPartition::Hybrid:
        if (cw < 2 || pw < 2)
            return "H-type chiplet split needs both ways >= 2";
        break;
    }

    s = deriveShapes(layer, cfg, m);
    if (s.chipletTile.co < cw)
        return "chiplet tile has fewer channels than channel ways";
    if (s.chipletTile.ho < m.chipSplit.fh ||
        s.chipletTile.wo < m.chipSplit.fw) {
        return "chiplet tile plane smaller than the core split";
    }

    // O-L1 must hold one core tile of partial sums for all lanes.
    const int64_t ol1_bits =
        static_cast<int64_t>(s.coreTile.ho) * s.coreTile.wo *
        cfg.core.lanes * psum_bits;
    if (ol1_bits > cfg.core.ol1Bytes * 8)
        return "O-L1 cannot hold a core tile of partial sums";

    // A-L1 must hold at least one vector-step input slice of the tile.
    const int64_t al1_min =
        static_cast<int64_t>(inputExtent(s.coreTile.ho, layer.kh,
                                         layer.stride)) *
        inputExtent(s.coreTile.wo, layer.kw, layer.stride) *
        std::min(cfg.core.vectorSize, layer.ciPerGroup());
    if (al1_min > cfg.core.al1Bytes)
        return "A-L1 cannot hold one input slice of the core tile";

    // W-L1 must hold at least one vector step of weights.
    if (static_cast<int64_t>(cfg.core.lanes) * cfg.core.vectorSize >
        cfg.core.wl1Bytes) {
        return "W-L1 cannot hold one vector step of weights";
    }
    return "";
}

} // namespace nnbaton
