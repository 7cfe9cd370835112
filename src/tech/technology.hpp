/**
 * @file
 * 16 nm technology model: per-operation energies (paper table I),
 * linear SRAM/RF size-to-energy/area fits (paper figure 10), MAC and
 * PHY area, and bandwidth/frequency parameters for the runtime
 * simulator.
 *
 * Every constant is a named, overridable field so the model can be
 * recalibrated; defaults reproduce the paper's published anchors.
 */

#ifndef NNBATON_TECH_TECHNOLOGY_HPP
#define NNBATON_TECH_TECHNOLOGY_HPP

#include <cstdint>
#include <string>

namespace nnbaton {

/**
 * Linear model y = offset + slope * x fitted through published anchor
 * points (figure 10 shows SRAM/RF overheads are approximately linear
 * in size).
 */
struct LinearFit
{
    double offset = 0.0;
    double slope = 0.0;

    double operator()(double x) const { return offset + slope * x; }
};

/**
 * The 16 nm multichip technology model.
 *
 * Energies are picojoules, areas square millimetres, sizes bytes
 * unless stated otherwise.
 */
struct TechnologyModel
{
    /// @name Table I anchors (pJ/bit unless noted)
    /// @{
    double dramEnergyPerBit = 8.75;   //!< DRAM access via DDR PHY
    double d2dEnergyPerBit = 1.17;    //!< GRS die-to-die link (pair of PHYs)
    double l2EnergyPerBitAt32K = 0.81;  //!< 32 KB SRAM access
    double l1EnergyPerBitAt1K = 0.3;    //!< 1 KB SRAM access
    double rfEnergyPerBitRmw = 0.104;   //!< register read-modify-write
    double macEnergyPerOp = 0.024;      //!< 8-bit MAC, pJ/op
    /// @}

    /** Vector-ALU element operation (pJ/op) for post-MAC passes such
     *  as the softmax in attention scores.  Scaled from the MAC
     *  anchor: an 8-bit exp/normalise step costs roughly twice a MAC
     *  on the same datapath (not in table I, documented in
     *  DESIGN.md). */
    double vectorOpEnergyPerOp = 0.05;

    /** On-chip NoC hop energy (pJ/bit) for Simba-style psum routing;
     *  set to the 32 KB L2 access cost since each hop traverses the
     *  router buffering (not in table I, documented in DESIGN.md). */
    double nocEnergyPerBit = 0.81;

    /// @name Figure 10 linear fits
    /// SRAM access energy grows linearly with macro size; the fit runs
    /// through the two published anchors (1 KB -> 0.3, 32 KB -> 0.81).
    /// @{

    /** SRAM access energy (pJ/bit) as a function of macro size in KB. */
    LinearFit sramEnergyPerBitKb{0.28355, 0.016452};

    /** SRAM macro area (mm^2) as a function of size in KB.
     *  ~0.4 mm^2/MB 16 nm-class density plus a fixed periphery term,
     *  calibrated so the paper's area-constraint boundaries (figures
     *  14-15) reproduce; see DESIGN.md. */
    LinearFit sramAreaMm2Kb{0.002, 0.0004};

    /** RF (register) area (mm^2) per KB — denser logic but flop-based,
     *  roughly 4x SRAM cost per bit. */
    LinearFit rfAreaMm2Kb{0.0005, 0.0016};
    /// @}

    /// @name Compute and PHY area
    /// @{
    double macAreaUm2 = 135.1;   //!< one 8-bit MAC (paper section V-A)
    double grsPhyAreaMm2 = 0.38; //!< GRS D2D PHY macro per chiplet
    double ddrPhyAreaMm2 = 1.0;  //!< DDR PHY per chiplet (off-chip ifc)
    /// @}

    /// @name Timing
    /// @{
    double frequencyGhz = 0.5;      //!< core clock (500 MHz)
    int dramBitsPerCycle = 256;     //!< per-chiplet DRAM bandwidth (16 GB/s)
    int d2dBitsPerCycle = 128;      //!< per-link ring (GRS) bandwidth
    /// @}

    /// @name Datapath widths
    /// @{
    int dataBits = 8;  //!< activations and weights
    int psumBits = 24; //!< partial-sum accumulator width
    /// @}

    /** SRAM access energy in pJ/bit for a macro of @p bytes. */
    double sramEnergyPerBit(int64_t bytes) const;

    /** SRAM macro area in mm^2 for @p bytes. */
    double sramAreaMm2(int64_t bytes) const;

    /** Register-file area in mm^2 for @p bytes. */
    double rfAreaMm2(int64_t bytes) const;

    /** Area of @p count MAC units in mm^2. */
    double macAreaMm2(int64_t count) const;

    /** Nanoseconds for @p cycles at the configured frequency. */
    double cyclesToNs(int64_t cycles) const;

    /**
     * A 64-bit digest of every parameter forEachTechParameter() names:
     * the table I energy anchors, the SRAM/RF linear fits, the MAC and
     * PHY areas, frequency, bandwidths and datapath widths.  Two models
     * that differ in any of these produce different fingerprints, so a
     * fabric worker's sweepUnit gate can never evaluate under
     * different technology assumptions than its coordinator.
     */
    uint64_t fingerprint() const;

    /** Pretty-print table I from the model for the bench harness. */
    std::string tableOneString() const;
};

/** The default 16 nm model used throughout the evaluation. */
const TechnologyModel &defaultTech();

/** The fixed %016llx rendering of TechnologyModel::fingerprint(), the
 *  form a sweepUnit request carries.  The coordinator sends it and a
 *  worker's identity gate compares with it, so both call this. */
std::string techFingerprintHex(const TechnologyModel &tech);

/**
 * The one table of technology parameters: calls @p fn(name, member)
 * for each of the 22, members being double or int.
 * TechnologyModel::fingerprint() digests exactly these; the names are
 * those of the serve protocol's "tech" object, which the fabric's
 * sweepUnit request sends in full.  @p tech is const for encoders and
 * mutable for parsers.
 */
template <typename Tech, typename Fn>
void
forEachTechParameter(Tech &tech, Fn &&fn)
{
    fn("dramEnergyPerBit", tech.dramEnergyPerBit);
    fn("d2dEnergyPerBit", tech.d2dEnergyPerBit);
    fn("l2EnergyPerBitAt32K", tech.l2EnergyPerBitAt32K);
    fn("l1EnergyPerBitAt1K", tech.l1EnergyPerBitAt1K);
    fn("rfEnergyPerBitRmw", tech.rfEnergyPerBitRmw);
    fn("macEnergyPerOp", tech.macEnergyPerOp);
    fn("nocEnergyPerBit", tech.nocEnergyPerBit);
    fn("sramEnergyOffset", tech.sramEnergyPerBitKb.offset);
    fn("sramEnergySlope", tech.sramEnergyPerBitKb.slope);
    fn("sramAreaOffset", tech.sramAreaMm2Kb.offset);
    fn("sramAreaSlope", tech.sramAreaMm2Kb.slope);
    fn("rfAreaOffset", tech.rfAreaMm2Kb.offset);
    fn("rfAreaSlope", tech.rfAreaMm2Kb.slope);
    fn("macAreaUm2", tech.macAreaUm2);
    fn("grsPhyAreaMm2", tech.grsPhyAreaMm2);
    fn("ddrPhyAreaMm2", tech.ddrPhyAreaMm2);
    fn("vectorOpEnergyPerOp", tech.vectorOpEnergyPerOp);
    fn("frequencyGhz", tech.frequencyGhz);
    fn("dramBitsPerCycle", tech.dramBitsPerCycle);
    fn("d2dBitsPerCycle", tech.d2dBitsPerCycle);
    fn("dataBits", tech.dataBits);
    fn("psumBits", tech.psumBits);
}

} // namespace nnbaton

#endif // NNBATON_TECH_TECHNOLOGY_HPP
