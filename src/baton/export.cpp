#include "baton/export.hpp"

#include "common/json.hpp"
#include "common/metrics.hpp"

namespace nnbaton {

namespace {

/**
 * The shared observability block: a snapshot of the metrics registry,
 * whose "<span>_ns" histograms time every phase, so an exported
 * report carries the cost of producing it.
 */
void
writeObservability(JsonWriter &j)
{
    j.beginObject();
    j.key("metrics");
    obs::writeMetricsJson(j,
                          obs::MetricsRegistry::instance().snapshot());
    j.endObject();
}

void
writeMapping(JsonWriter &j, const Mapping &m)
{
    j.beginObject();
    j.key("spatial").beginObject();
    j.field("package", toString(m.pkgSpatial));
    j.field("packagePattern", m.pkgSplit.toString());
    j.field("chiplet", toString(m.chipSpatial));
    j.field("chipletChannelWays", m.chipChannelWays);
    j.field("chipletPattern", m.chipSplit.toString());
    j.endObject();

    j.key("temporal").beginObject();
    j.field("packageOrder", toString(m.pkgOrder));
    j.field("chipletOrder", toString(m.chipOrder));
    j.key("chipletTile").beginArray();
    j.value(m.chipletTile.ho).value(m.chipletTile.wo).value(
        m.chipletTile.co);
    j.endArray();
    j.key("coreTilePlane").beginArray();
    j.value(m.hoC).value(m.woC);
    j.endArray();
    j.endObject();
    j.endObject();
}

void
writeEnergy(JsonWriter &j, const EnergyBreakdown &e)
{
    j.beginObject();
    j.field("total_pj", e.total());
    j.field("dram_pj", e.dram);
    j.field("d2d_pj", e.d2d);
    j.field("noc_pj", e.noc);
    j.field("al2_pj", e.al2);
    j.field("al1_pj", e.al1);
    j.field("wl1_pj", e.wl1);
    j.field("ol1_pj", e.ol1);
    j.field("ol2_pj", e.ol2);
    j.field("mac_pj", e.mac);
    j.endObject();
}

void
writeConfig(JsonWriter &j, const AcceleratorConfig &cfg)
{
    j.beginObject();
    j.field("chiplets", cfg.package.chiplets);
    j.field("cores", cfg.chiplet.cores);
    j.field("lanes", cfg.core.lanes);
    j.field("vectorSize", cfg.core.vectorSize);
    j.field("ol1Bytes", cfg.core.ol1Bytes);
    j.field("al1Bytes", cfg.core.al1Bytes);
    j.field("wl1Bytes", cfg.core.wl1Bytes);
    j.field("al2Bytes", cfg.chiplet.al2Bytes);
    j.endObject();
}

} // namespace

void
exportMapping(const Mapping &mapping, std::ostream &os)
{
    JsonWriter j(os);
    writeMapping(j, mapping);
}

void
exportPostDesign(const PostDesignReport &report, std::ostream &os,
                 const ExportOptions &options)
{
    JsonWriter j(os);
    j.beginObject();
    j.field("model", report.modelName);
    j.field("feasible", report.feasible);
    j.key("hardware");
    writeConfig(j, report.config);
    j.field("total_energy_pj", report.cost.energy.total());
    j.field("total_cycles", report.cost.cycles);

    j.key("layers").beginArray();
    for (size_t i = 0; i < report.mappings.size(); ++i) {
        const MappingChoice &c = report.mappings[i];
        j.beginObject();
        j.field("name", report.cost.layers[i].layerName);
        j.key("mapping");
        writeMapping(j, c.mapping);
        j.key("energy");
        writeEnergy(j, c.energy);
        j.field("cycles", c.runtime.cycles);
        j.field("utilization", c.runtime.utilization);
        j.endObject();
    }
    j.endArray();
    if (options.runDependent) {
        j.key("observability");
        writeObservability(j);
    }
    j.endObject();
    os << "\n";
}

void
exportPreDesign(const PreDesignReport &report, std::ostream &os,
                const ExportOptions &options)
{
    JsonWriter j(os);
    j.beginObject();
    j.field("swept", report.sweep.swept);
    j.field("areaRejected", report.sweep.areaRejected);
    j.field("infeasible", report.sweep.infeasible);
    j.field("complete", report.sweep.complete);
    j.field("skipped", report.sweep.skipped);
    j.field("resumed", report.sweep.resumed);
    if (options.runDependent) {
        j.key("search").beginObject();
        j.field("evaluated", report.sweep.search.evaluated);
        j.field("pruned", report.sweep.search.pruned);
        j.field("cacheHits", report.sweep.search.cacheHits);
        j.field("cacheMisses", report.sweep.search.cacheMisses);
        j.field("cacheEntries", report.sweep.cacheEntries);
        j.endObject();
        j.field("elapsedSeconds", report.sweep.elapsedSeconds);
    }

    j.key("points").beginArray();
    for (const DesignPoint &p : report.sweep.points) {
        j.beginObject();
        j.key("compute").beginArray();
        j.value(p.compute.chiplets)
            .value(p.compute.cores)
            .value(p.compute.lanes)
            .value(p.compute.vectorSize);
        j.endArray();
        j.key("memory").beginObject();
        j.field("ol1Bytes", p.memory.ol1Bytes);
        j.field("al1Bytes", p.memory.al1Bytes);
        j.field("wl1Bytes", p.memory.wl1Bytes);
        j.field("al2Bytes", p.memory.al2Bytes);
        j.endObject();
        j.field("chipletAreaMm2", p.area.total());
        j.field("energy_pj", p.cost.energy.total());
        j.field("cycles", p.cost.cycles);
        j.field("edp", p.edp());
        j.endObject();
    }
    j.endArray();

    j.key("poisoned").beginArray();
    for (const PoisonedPoint &p : report.sweep.poisoned) {
        j.beginObject();
        j.field("sweepIndex", p.sweepIndex);
        j.key("compute").beginArray();
        j.value(p.compute.chiplets)
            .value(p.compute.cores)
            .value(p.compute.lanes)
            .value(p.compute.vectorSize);
        j.endArray();
        j.key("memory").beginObject();
        j.field("ol1Bytes", p.memory.ol1Bytes);
        j.field("al1Bytes", p.memory.al1Bytes);
        j.field("wl1Bytes", p.memory.wl1Bytes);
        j.field("al2Bytes", p.memory.al2Bytes);
        j.endObject();
        j.field("error", p.error);
        j.endObject();
    }
    j.endArray();

    if (report.recommended) {
        j.key("recommended").beginObject();
        j.key("compute").beginArray();
        j.value(report.recommended->compute.chiplets)
            .value(report.recommended->compute.cores)
            .value(report.recommended->compute.lanes)
            .value(report.recommended->compute.vectorSize);
        j.endArray();
        j.field("edp", report.recommended->edp());
        j.endObject();
    }
    if (options.runDependent) {
        j.key("observability");
        writeObservability(j);
    }
    j.endObject();
    os << "\n";
}

} // namespace nnbaton
