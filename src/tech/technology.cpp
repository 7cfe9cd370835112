#include "tech/technology.hpp"

#include <cstring>
#include <sstream>

#include "common/logging.hpp"
#include "common/table.hpp"

namespace nnbaton {

double
TechnologyModel::sramEnergyPerBit(int64_t bytes) const
{
    if (bytes <= 0)
        panic("sramEnergyPerBit: non-positive size %lld",
              static_cast<long long>(bytes));
    return sramEnergyPerBitKb(static_cast<double>(bytes) / 1024.0);
}

double
TechnologyModel::sramAreaMm2(int64_t bytes) const
{
    return sramAreaMm2Kb(static_cast<double>(bytes) / 1024.0);
}

double
TechnologyModel::rfAreaMm2(int64_t bytes) const
{
    return rfAreaMm2Kb(static_cast<double>(bytes) / 1024.0);
}

double
TechnologyModel::macAreaMm2(int64_t count) const
{
    return static_cast<double>(count) * macAreaUm2 * 1e-6;
}

double
TechnologyModel::cyclesToNs(int64_t cycles) const
{
    return static_cast<double>(cycles) / frequencyGhz;
}

uint64_t
TechnologyModel::fingerprint() const
{
    // FNV-1a over the raw bit patterns of every named parameter, so
    // models differing by even one ULP in any of them fingerprint
    // differently.
    uint64_t h = 1469598103934665603ull;
    forEachTechParameter(*this, [&h](const char *, const auto &v) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(v));
        h ^= bits;
        h *= 1099511628211ull;
    });
    return h;
}

std::string
TechnologyModel::tableOneString() const
{
    TextTable t({"Operation", "Energy (pJ/bit)", "Relative cost"});
    auto rel = [&](double e) { return e / macEnergyPerOp; };
    t.newRow().add("DRAM access").add(dramEnergyPerBit, 2)
        .add(rel(dramEnergyPerBit), 2);
    t.newRow().add("Die-to-die communication").add(d2dEnergyPerBit, 2)
        .add(rel(d2dEnergyPerBit), 2);
    t.newRow().add("L2 access (32KB SRAM)")
        .add(sramEnergyPerBit(32 * 1024), 2)
        .add(rel(sramEnergyPerBit(32 * 1024)), 2);
    t.newRow().add("L1 access (1KB SRAM)").add(sramEnergyPerBit(1024), 2)
        .add(rel(sramEnergyPerBit(1024)), 2);
    t.newRow().add("Register read-modify-write").add(rfEnergyPerBitRmw, 3)
        .add(rel(rfEnergyPerBitRmw), 2);
    t.newRow().add("8bit MAC (pJ/op)").add(macEnergyPerOp, 3).add(1.0, 2);

    std::ostringstream ss;
    t.print(ss);
    return ss.str();
}

const TechnologyModel &
defaultTech()
{
    static const TechnologyModel tech;
    return tech;
}

std::string
techFingerprintHex(const TechnologyModel &tech)
{
    return strprintf(
        "%016llx",
        static_cast<unsigned long long>(tech.fingerprint()));
}

} // namespace nnbaton
