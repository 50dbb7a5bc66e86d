/**
 * @file
 * BenchmarkProfile: the statistical knobs that shape a synthetic
 * workload.
 *
 * The paper evaluated SPECint95 plus common UNIX applications. We do
 * not have those binaries (nor SimpleScalar to run them), so each
 * benchmark is modeled by a profile that controls the properties the
 * trace cache, branch predictor and memory system actually respond
 * to: static code footprint, basic-block sizes, the branch-bias
 * mixture, loop trip counts, call/indirect/trap frequency, and data
 * working-set size. See DESIGN.md section 2 for the substitution
 * rationale.
 */

#ifndef TCSIM_WORKLOAD_PROFILE_H
#define TCSIM_WORKLOAD_PROFILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace tcsim::workload
{

/** Generation parameters for one synthetic benchmark. */
struct BenchmarkProfile
{
    /** Benchmark name (paper benchmark it stands in for). */
    std::string name;

    /** Seed for all generation randomness. */
    std::uint64_t seed = 1;

    // ------------------------------------------------------------------
    // Static code shape.
    // ------------------------------------------------------------------

    /** Number of generated functions (beyond main). */
    unsigned numFunctions = 40;

    /** Mean number of statements (structures) per function body. */
    double avgStatementsPerFunction = 9.0;

    /** Mean payload (non-control) instructions per basic block. */
    double avgBlockSize = 4.0;

    /** Maximum loop nesting depth within a function. */
    unsigned maxLoopDepth = 2;

    // ------------------------------------------------------------------
    // Statement mix (probabilities; remainder is straight-line blocks).
    // ------------------------------------------------------------------

    double loopProb = 0.22;   ///< statement is a counted loop
    double ifProb = 0.34;     ///< statement is an if or if-else
    double callProb = 0.18;   ///< statement is a call site
    double switchProb = 0.01; ///< statement is an indirect switch
    double trapProb = 0.0005; ///< statement is a serializing trap

    // ------------------------------------------------------------------
    // Loop behaviour.
    // ------------------------------------------------------------------

    /** Mean trip count of ordinary loops. */
    double avgTripCount = 12.0;

    /** Fraction of loops with high trip counts (promotable latches). */
    double highTripFrac = 0.15;

    /** Mean trip count of high-trip loops. */
    double highTripCount = 300.0;

    // ------------------------------------------------------------------
    // If-branch bias mixture (fractions of if sites; must sum <= 1;
    // the remainder are ~50/50 unpredictable branches).
    // ------------------------------------------------------------------

    /** Structurally never-taken checks (assertions, error paths). */
    double fracNeverTaken = 0.30;

    /** ~1/128..1/1024 off-direction, data-driven. */
    double fracStronglyBiased = 0.25;

    /** ~10-25% off-direction. */
    double fracModeratelyBiased = 0.25;

    // ------------------------------------------------------------------
    // Memory behaviour.
    // ------------------------------------------------------------------

    /** Probability a payload instruction is a load. */
    double loadFrac = 0.22;

    /** Probability a payload instruction is a store. */
    double storeFrac = 0.10;

    /** Random-access data working set, in KB (vs the 64 KB L1D). */
    unsigned dataWorkingSetKB = 32;

    /** Fraction of loads that hit the random-access region. */
    double randomAccessFrac = 0.15;

    // ------------------------------------------------------------------
    // Server-class extensions (Micro BTB-style front ends). All-zero
    // means "classic profile": the generator takes exactly the legacy
    // code paths and profileFingerprint() hashes exactly the legacy
    // field list, so every pre-existing fingerprint, unit hash and
    // golden stays byte-identical. Any non-zero field switches the
    // server code paths on and appends a tagged "server-ext-v1" block
    // to the fingerprint.
    // ------------------------------------------------------------------

    /**
     * Depth of the per-band helper call chains (chain_0 calls chain_1
     * calls ... chain_{depth-1}); stresses the RAS and spreads live
     * code across many icache-unfriendly regions.
     */
    unsigned serverCallChainDepth = 0;

    /**
     * Cases in each band dispatcher's indirect (jr-through-table)
     * dispatch loop; models request-type demultiplexing.
     */
    unsigned serverDispatchCases = 0;

    /** Iterations of that dispatch loop per dispatcher invocation. */
    unsigned serverDispatchTrip = 0;

    /**
     * Dead tail-padding instructions appended after each function's
     * cold blocks; inflates the static footprint without changing the
     * dynamic instruction stream shape (multi-MB-footprint knob).
     */
    unsigned serverCodePaddingInsts = 0;

    // ------------------------------------------------------------------
    // Experiment defaults.
    // ------------------------------------------------------------------

    /** Default dynamic instruction budget for experiments. */
    std::uint64_t defaultMaxInsts = 2'000'000;
};

/** @return whether any server extension field of @p profile is set. */
inline bool
isServerProfile(const BenchmarkProfile &profile)
{
    return profile.serverCallChainDepth != 0 ||
           profile.serverDispatchCases != 0 ||
           profile.serverDispatchTrip != 0 ||
           profile.serverCodePaddingInsts != 0;
}

/**
 * @return a stable FNV-1a fingerprint over every generation-relevant
 * field of @p profile (doubles hashed by bit pattern). Two profiles
 * with equal fingerprints generate identical programs for a given
 * generator version; the sweep work-unit protocol folds this into
 * unit content hashes, and a btrace header carries it.
 */
std::uint64_t profileFingerprint(const BenchmarkProfile &profile);

/** @return the 15-benchmark suite mirroring the paper's Table 1. */
const std::vector<BenchmarkProfile> &benchmarkSuite();

/**
 * @return the server-class profile set (huge code footprints, deep
 * call chains, indirect-dispatch loops, elevated trap density). Kept
 * separate from benchmarkSuite() so default sweep matrices, goldens
 * and suite-size invariants are untouched; reachable by name through
 * findProfile() and explicit --benchmarks lists.
 */
const std::vector<BenchmarkProfile> &serverSuite();

/**
 * @return the profile with the given name, searching the classic
 * suite first and then the server suite; fatal if absent.
 */
const BenchmarkProfile &findProfile(const std::string &name);

} // namespace tcsim::workload

#endif // TCSIM_WORKLOAD_PROFILE_H
