/**
 * @file
 * tcsim_disasm: generate (or load) a workload and print its
 * disassembly, data image summary, and stream characterization —
 * the tool for inspecting what the simulator actually executes.
 *
 *   tcsim_disasm [--bench <name> | --load <file>] [--save <file>]
 *                [--limit <n>] [--characterize <insts>]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parse.h"
#include "workload/characterize.h"
#include "workload/generator.h"
#include "workload/profile.h"
#include "workload/serialize.h"

int
main(int argc, char **argv)
{
    using namespace tcsim;

    std::string bench = "compress";
    std::string load_path, save_path;
    std::size_t limit = 200;
    std::uint64_t characterize_insts = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--bench")
            bench = value();
        else if (arg == "--load")
            load_path = value();
        else if (arg == "--save")
            save_path = value();
        else if (arg == "--limit")
            limit = requireUint("--limit", value());
        else if (arg == "--characterize")
            characterize_insts = requireUint("--characterize", value());
        else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        }
    }

    workload::Program program = [&] {
        if (!load_path.empty()) {
            auto loaded = workload::loadProgram(load_path);
            if (!loaded)
                fatal("cannot load program from %s", load_path.c_str());
            return std::move(*loaded);
        }
        return workload::generateProgram(workload::findProfile(bench));
    }();

    if (!save_path.empty()) {
        if (!workload::saveProgram(program, save_path))
            fatal("cannot save program to %s", save_path.c_str());
        std::printf("saved %s (%zu instructions) to %s\n",
                    program.name().c_str(), program.codeSize(),
                    save_path.c_str());
    }

    std::printf("program %s: %zu instructions at 0x%llx, entry 0x%llx, "
                "%zu initialized data words\n",
                program.name().c_str(), program.codeSize(),
                static_cast<unsigned long long>(program.codeBase()),
                static_cast<unsigned long long>(program.entry()),
                program.initData().size());

    std::size_t printed = 0;
    for (Addr addr = program.codeBase();
         addr < program.codeLimit() && printed < limit;
         addr += isa::kInstBytes, ++printed) {
        std::printf("  %06llx  %s\n",
                    static_cast<unsigned long long>(addr),
                    isa::disassemble(program.fetch(addr), addr).c_str());
    }
    if (printed < program.codeSize())
        std::printf("  ... (%zu more; raise --limit)\n",
                    program.codeSize() - printed);

    if (characterize_insts > 0) {
        const workload::WorkloadStats ws =
            workload::characterize(program, characterize_insts);
        std::printf("\ncharacterization over %llu instructions:\n",
                    static_cast<unsigned long long>(ws.instCount));
        std::printf("  cond branches   %.2f%% (taken %.1f%%)\n",
                    100.0 * ws.condBranches / ws.instCount,
                    100.0 * ws.condTaken / ws.condBranches);
        std::printf("  fill block size %.2f\n", ws.avgFillBlockSize);
        std::printf("  loads/stores    %.1f%% / %.1f%%\n",
                    100.0 * ws.loads / ws.instCount,
                    100.0 * ws.stores / ws.instCount);
        std::printf("  calls/indirect  %.2f%% / %.2f%%\n",
                    100.0 * ws.calls / ws.instCount,
                    100.0 * ws.indirectJumps / ws.instCount);
        std::printf("  strongly biased %.1f%% of dynamic branches\n",
                    100.0 * ws.fracDynStronglyBiased);
    }
    return 0;
}
