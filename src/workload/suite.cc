/**
 * @file
 * The 15-benchmark suite mirroring the paper's Table 1.
 *
 * Each profile is a caricature of the corresponding SPECint95 / UNIX
 * application, expressed in the statistical dimensions the front end
 * responds to. The values were tuned (see EXPERIMENTS.md) so the
 * baseline configuration lands near the paper's aggregates: icache
 * effective fetch rate ~5, trace cache baseline ~10.5-10.7, baseline
 * conditional misprediction rate ~8%, and >50% of dynamic branches
 * strongly biased.
 */

#include "workload/profile.h"

#include "common/fnv.h"
#include "common/log.h"

namespace tcsim::workload
{

namespace
{

std::vector<BenchmarkProfile>
makeSuite()
{
    std::vector<BenchmarkProfile> suite;

    // SPECint95 ------------------------------------------------------

    { // compress: tiny kernel, tight loops, data-dependent branches.
        BenchmarkProfile p;
        p.name = "compress";
        p.seed = 0xC0111;
        p.numFunctions = 14;
        p.avgStatementsPerFunction = 8;
        p.avgBlockSize = 3.5;
        p.loopProb = 0.30;
        p.avgTripCount = 76.8;
        p.highTripFrac = 0.15;
        p.fracNeverTaken = 0.22;
        p.fracStronglyBiased = 0.22;
        p.fracModeratelyBiased = 0.30;
        p.dataWorkingSetKB = 256;
        p.randomAccessFrac = 0.30;
        suite.push_back(p);
    }
    { // gcc: very large, branchy code with small blocks.
        BenchmarkProfile p;
        p.name = "gcc";
        p.seed = 0x6CC;
        p.numFunctions = 460;
        p.avgStatementsPerFunction = 10;
        p.avgBlockSize = 2.3;
        p.loopProb = 0.16;
        p.ifProb = 0.40;
        p.callProb = 0.21;
        p.avgTripCount = 22.4;
        p.highTripFrac = 0.1;
        p.fracNeverTaken = 0.30;
        p.fracStronglyBiased = 0.24;
        p.fracModeratelyBiased = 0.24;
        p.dataWorkingSetKB = 128;
        suite.push_back(p);
    }
    { // go: large, extremely branchy, hard-to-predict decisions.
        BenchmarkProfile p;
        p.name = "go";
        p.seed = 0x60;
        p.numFunctions = 380;
        p.avgStatementsPerFunction = 10;
        p.avgBlockSize = 2.6;
        p.loopProb = 0.14;
        p.ifProb = 0.44;
        p.avgTripCount = 19.2;
        p.highTripFrac = 0.08;
        p.fracNeverTaken = 0.24;
        p.fracStronglyBiased = 0.20;
        p.fracModeratelyBiased = 0.26;
        p.dataWorkingSetKB = 64;
        suite.push_back(p);
    }
    { // ijpeg: small code, high-trip loops, large blocks.
        BenchmarkProfile p;
        p.name = "ijpeg";
        p.seed = 0x1395;
        p.numFunctions = 40;
        p.avgStatementsPerFunction = 8;
        p.avgBlockSize = 4.5;
        p.loopProb = 0.34;
        p.ifProb = 0.22;
        p.avgTripCount = 80;
        p.highTripFrac = 0.2;
        p.highTripCount = 120;
        p.fracNeverTaken = 0.34;
        p.fracStronglyBiased = 0.30;
        p.fracModeratelyBiased = 0.20;
        p.dataWorkingSetKB = 96;
        suite.push_back(p);
    }
    { // li: lisp interpreter, call/return heavy, dispatch switches.
        BenchmarkProfile p;
        p.name = "li";
        p.seed = 0x115;
        p.numFunctions = 70;
        p.avgStatementsPerFunction = 7;
        p.avgBlockSize = 1.8;
        p.loopProb = 0.12;
        p.ifProb = 0.36;
        p.callProb = 0.36;
        p.switchProb = 0.025;
        p.avgTripCount = 19.2;
        p.fracNeverTaken = 0.28;
        p.fracStronglyBiased = 0.26;
        p.fracModeratelyBiased = 0.24;
        p.dataWorkingSetKB = 48;
        suite.push_back(p);
    }
    { // m88ksim: CPU simulator, decode switches, biased checks.
        BenchmarkProfile p;
        p.name = "m88ksim";
        p.seed = 0x88;
        p.numFunctions = 110;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 3.3;
        p.loopProb = 0.20;
        p.switchProb = 0.015;
        p.trapProb = 0.002;
        p.avgTripCount = 44.8;
        p.highTripFrac = 0.17;
        p.fracNeverTaken = 0.34;
        p.fracStronglyBiased = 0.28;
        p.fracModeratelyBiased = 0.22;
        p.dataWorkingSetKB = 64;
        suite.push_back(p);
    }
    { // perl: interpreter, large code, dispatch switches, calls.
        BenchmarkProfile p;
        p.name = "perl";
        p.seed = 0x9e71;
        p.numFunctions = 260;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 2.6;
        p.loopProb = 0.14;
        p.ifProb = 0.38;
        p.callProb = 0.27;
        p.switchProb = 0.02;
        p.avgTripCount = 25.6;
        p.fracNeverTaken = 0.30;
        p.fracStronglyBiased = 0.24;
        p.fracModeratelyBiased = 0.24;
        p.dataWorkingSetKB = 96;
        suite.push_back(p);
    }
    { // vortex: OO database, very call-heavy, strongly biased checks.
        BenchmarkProfile p;
        p.name = "vortex";
        p.seed = 0x0537e;
        p.numFunctions = 420;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 3.2;
        p.loopProb = 0.14;
        p.ifProb = 0.34;
        p.callProb = 0.4;
        p.avgTripCount = 25.6;
        p.fracNeverTaken = 0.42;
        p.fracStronglyBiased = 0.30;
        p.fracModeratelyBiased = 0.16;
        p.dataWorkingSetKB = 256;
        p.randomAccessFrac = 0.25;
        suite.push_back(p);
    }

    // Common UNIX applications ----------------------------------------

    { // gnuchess: game-tree search, recursive, mixed predictability.
        BenchmarkProfile p;
        p.name = "gnuchess";
        p.seed = 0xC4e55;
        p.numFunctions = 130;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 2.4;
        p.loopProb = 0.20;
        p.ifProb = 0.38;
        p.callProb = 0.24;
        p.avgTripCount = 32;
        p.fracNeverTaken = 0.24;
        p.fracStronglyBiased = 0.24;
        p.fracModeratelyBiased = 0.28;
        p.dataWorkingSetKB = 48;
        suite.push_back(p);
    }
    { // ghostscript: large renderer, loops plus branchy setup code.
        BenchmarkProfile p;
        p.name = "ghostscript";
        p.seed = 0x65;
        p.numFunctions = 340;
        p.avgStatementsPerFunction = 10;
        p.avgBlockSize = 3.2;
        p.loopProb = 0.20;
        p.avgTripCount = 57.6;
        p.highTripFrac = 0.17;
        p.fracNeverTaken = 0.30;
        p.fracStronglyBiased = 0.26;
        p.fracModeratelyBiased = 0.22;
        p.dataWorkingSetKB = 128;
        suite.push_back(p);
    }
    { // pgp: crypto kernels, very high-trip loops, large blocks.
        BenchmarkProfile p;
        p.name = "pgp";
        p.seed = 0x969;
        p.numFunctions = 90;
        p.avgStatementsPerFunction = 8;
        p.avgBlockSize = 4.6;
        p.loopProb = 0.30;
        p.ifProb = 0.24;
        p.avgTripCount = 80;
        p.highTripFrac = 0.2;
        p.highTripCount = 150;
        p.fracNeverTaken = 0.32;
        p.fracStronglyBiased = 0.30;
        p.fracModeratelyBiased = 0.20;
        p.dataWorkingSetKB = 32;
        suite.push_back(p);
    }
    { // python: bytecode interpreter, dispatch-dominated.
        BenchmarkProfile p;
        p.name = "python";
        p.seed = 0x9717;
        p.numFunctions = 240;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 1.8;
        p.loopProb = 0.14;
        p.ifProb = 0.36;
        p.callProb = 0.27;
        p.switchProb = 0.025;
        p.avgTripCount = 25.6;
        p.fracNeverTaken = 0.28;
        p.fracStronglyBiased = 0.26;
        p.fracModeratelyBiased = 0.24;
        p.dataWorkingSetKB = 96;
        suite.push_back(p);
    }
    { // gnuplot: plotting loops, strongly biased but flip-prone.
        BenchmarkProfile p;
        p.name = "gnuplot";
        p.seed = 0x9107;
        p.numFunctions = 120;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 3.6;
        p.loopProb = 0.26;
        p.avgTripCount = 96;
        p.highTripFrac = 0.23;
        p.fracNeverTaken = 0.22;
        p.fracStronglyBiased = 0.40;
        p.fracModeratelyBiased = 0.18;
        p.dataWorkingSetKB = 64;
        suite.push_back(p);
    }
    { // sim-outorder: simulator main loop, large branchy switch code.
        BenchmarkProfile p;
        p.name = "sim-outorder";
        p.seed = 0x5005;
        p.numFunctions = 220;
        p.avgStatementsPerFunction = 10;
        p.avgBlockSize = 2.0;
        p.loopProb = 0.18;
        p.ifProb = 0.38;
        p.switchProb = 0.015;
        p.avgTripCount = 32;
        p.fracNeverTaken = 0.30;
        p.fracStronglyBiased = 0.26;
        p.fracModeratelyBiased = 0.24;
        p.dataWorkingSetKB = 128;
        suite.push_back(p);
    }
    { // tex: large code, long straight-line runs, deep call chains.
        BenchmarkProfile p;
        p.name = "tex";
        p.seed = 0x7e8;
        p.numFunctions = 380;
        p.avgStatementsPerFunction = 10;
        p.avgBlockSize = 4.4;
        p.loopProb = 0.18;
        p.ifProb = 0.30;
        p.callProb = 0.27;
        p.avgTripCount = 38.4;
        p.fracNeverTaken = 0.36;
        p.fracStronglyBiased = 0.28;
        p.fracModeratelyBiased = 0.18;
        p.dataWorkingSetKB = 64;
        suite.push_back(p);
    }

    return suite;
}

std::vector<BenchmarkProfile>
makeServerSuite()
{
    std::vector<BenchmarkProfile> suite;

    { // server-oltp: transaction dispatch, huge footprint, deep chains.
        BenchmarkProfile p;
        p.name = "server-oltp";
        p.seed = 0x5E4501;
        p.numFunctions = 640;
        p.avgStatementsPerFunction = 10;
        p.avgBlockSize = 2.4;
        p.loopProb = 0.12;
        p.ifProb = 0.40;
        p.callProb = 0.27;
        p.switchProb = 0.02;
        p.trapProb = 0.004;
        p.avgTripCount = 19.2;
        p.highTripFrac = 0.06;
        p.fracNeverTaken = 0.32;
        p.fracStronglyBiased = 0.26;
        p.fracModeratelyBiased = 0.22;
        p.dataWorkingSetKB = 512;
        p.randomAccessFrac = 0.30;
        p.serverCallChainDepth = 12;
        p.serverDispatchCases = 16;
        p.serverDispatchTrip = 6;
        p.serverCodePaddingInsts = 96;
        suite.push_back(p);
    }
    { // server-web: request demux loops, moderate chains, trap-dense.
        BenchmarkProfile p;
        p.name = "server-web";
        p.seed = 0x5E4502;
        p.numFunctions = 480;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 2.8;
        p.loopProb = 0.16;
        p.ifProb = 0.38;
        p.callProb = 0.24;
        p.switchProb = 0.015;
        p.trapProb = 0.006;
        p.avgTripCount = 25.6;
        p.highTripFrac = 0.08;
        p.fracNeverTaken = 0.30;
        p.fracStronglyBiased = 0.28;
        p.fracModeratelyBiased = 0.22;
        p.dataWorkingSetKB = 256;
        p.randomAccessFrac = 0.25;
        p.serverCallChainDepth = 8;
        p.serverDispatchCases = 32;
        p.serverDispatchTrip = 4;
        p.serverCodePaddingInsts = 64;
        suite.push_back(p);
    }
    { // server-cache: key-value hot loop behind a fat dispatch layer.
        BenchmarkProfile p;
        p.name = "server-cache";
        p.seed = 0x5E4503;
        p.numFunctions = 520;
        p.avgStatementsPerFunction = 9;
        p.avgBlockSize = 2.2;
        p.loopProb = 0.14;
        p.ifProb = 0.40;
        p.callProb = 0.26;
        p.switchProb = 0.025;
        p.trapProb = 0.003;
        p.avgTripCount = 16;
        p.highTripFrac = 0.05;
        p.fracNeverTaken = 0.34;
        p.fracStronglyBiased = 0.26;
        p.fracModeratelyBiased = 0.22;
        p.dataWorkingSetKB = 384;
        p.randomAccessFrac = 0.35;
        p.serverCallChainDepth = 16;
        p.serverDispatchCases = 8;
        p.serverDispatchTrip = 8;
        p.serverCodePaddingInsts = 128;
        suite.push_back(p);
    }

    return suite;
}

} // namespace

std::uint64_t
profileFingerprint(const BenchmarkProfile &profile)
{
    // Every field participates; adding a profile knob without folding
    // it in here would let two differing profiles share a fingerprint,
    // so keep this list in sync with BenchmarkProfile.
    std::uint64_t hash = fnv1aAppend(kFnvOffsetBasis, profile.name);
    hash = fnv1aAppendScalar(hash, profile.seed);
    hash = fnv1aAppendScalar(hash, profile.numFunctions);
    hash = fnv1aAppendScalar(hash, profile.avgStatementsPerFunction);
    hash = fnv1aAppendScalar(hash, profile.avgBlockSize);
    hash = fnv1aAppendScalar(hash, profile.maxLoopDepth);
    hash = fnv1aAppendScalar(hash, profile.loopProb);
    hash = fnv1aAppendScalar(hash, profile.ifProb);
    hash = fnv1aAppendScalar(hash, profile.callProb);
    hash = fnv1aAppendScalar(hash, profile.switchProb);
    hash = fnv1aAppendScalar(hash, profile.trapProb);
    hash = fnv1aAppendScalar(hash, profile.avgTripCount);
    hash = fnv1aAppendScalar(hash, profile.highTripFrac);
    hash = fnv1aAppendScalar(hash, profile.highTripCount);
    hash = fnv1aAppendScalar(hash, profile.fracNeverTaken);
    hash = fnv1aAppendScalar(hash, profile.fracStronglyBiased);
    hash = fnv1aAppendScalar(hash, profile.fracModeratelyBiased);
    hash = fnv1aAppendScalar(hash, profile.loadFrac);
    hash = fnv1aAppendScalar(hash, profile.storeFrac);
    hash = fnv1aAppendScalar(hash, profile.dataWorkingSetKB);
    hash = fnv1aAppendScalar(hash, profile.randomAccessFrac);
    hash = fnv1aAppendScalar(hash, profile.defaultMaxInsts);
    // Server extension fields join the hash only when one is set, under
    // a version tag (same pattern as the "mem-ext-v1" config block):
    // classic profiles keep their historical fingerprints bit-for-bit,
    // so no unit hash or golden moves.
    if (isServerProfile(profile)) {
        hash = fnv1aAppend(hash, "server-ext-v1");
        hash = fnv1aAppendScalar(hash, profile.serverCallChainDepth);
        hash = fnv1aAppendScalar(hash, profile.serverDispatchCases);
        hash = fnv1aAppendScalar(hash, profile.serverDispatchTrip);
        hash = fnv1aAppendScalar(hash, profile.serverCodePaddingInsts);
    }
    return hash;
}

const std::vector<BenchmarkProfile> &
benchmarkSuite()
{
    static const std::vector<BenchmarkProfile> suite = makeSuite();
    return suite;
}

const std::vector<BenchmarkProfile> &
serverSuite()
{
    static const std::vector<BenchmarkProfile> suite = makeServerSuite();
    return suite;
}

const BenchmarkProfile &
findProfile(const std::string &name)
{
    for (const BenchmarkProfile &profile : benchmarkSuite()) {
        if (profile.name == name)
            return profile;
    }
    for (const BenchmarkProfile &profile : serverSuite()) {
        if (profile.name == name)
            return profile;
    }
    fatal("no benchmark profile named '%s'", name.c_str());
}

} // namespace tcsim::workload
