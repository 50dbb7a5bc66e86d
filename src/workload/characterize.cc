#include "workload/characterize.h"

#include <unordered_map>
#include <unordered_set>

namespace tcsim::workload
{

namespace
{

struct SiteStats
{
    std::uint64_t taken = 0;
    std::uint64_t total = 0;
};

} // namespace

WorkloadStats
characterize(const Program &program, std::uint64_t max_insts)
{
    FunctionalExecutor exec(program);
    WorkloadStats ws;

    std::unordered_map<Addr, SiteStats> sites;
    std::unordered_map<Addr, std::pair<bool, std::uint64_t>> runs;
    std::unordered_set<Addr> touched;
    std::uint64_t long_run_execs = 0;
    std::uint64_t block_len = 0;

    while (!exec.halted() && ws.instCount < max_insts) {
        const StepResult step = exec.step();
        ++ws.instCount;
        touched.insert(step.pc);
        ++block_len;

        const isa::Opcode op = step.inst.op;
        bool ends_block = false;
        if (isa::isCondBranch(op)) {
            ++ws.condBranches;
            if (step.taken)
                ++ws.condTaken;
            ends_block = true;

            SiteStats &site = sites[step.pc];
            ++site.total;
            if (step.taken)
                ++site.taken;

            auto &[run_dir, run_len] = runs[step.pc];
            if (run_len > 0 && run_dir == step.taken) {
                ++run_len;
            } else {
                run_dir = step.taken;
                run_len = 1;
            }
            if (run_len > 64)
                ++long_run_execs;
        } else if (isa::isCall(op)) {
            ++ws.calls;
        } else if (isa::isReturn(op)) {
            ++ws.returns;
            ends_block = true;
        } else if (isa::isIndirectJump(op)) {
            ++ws.indirectJumps;
            ends_block = true;
        } else if (isa::isUncondDirect(op)) {
            ++ws.uncondJumps;
        } else if (op == isa::Opcode::Trap) {
            ++ws.traps;
            ends_block = true;
        } else if (isa::isLoad(op)) {
            ++ws.loads;
        } else if (isa::isStore(op)) {
            ++ws.stores;
        }

        if (ends_block) {
            ws.fillBlockHist.sample(
                static_cast<unsigned>(std::min<std::uint64_t>(block_len,
                                                              16)));
            block_len = 0;
        }
    }

    ws.halted = exec.halted();
    ws.touchedCodeAddrs = touched.size();
    ws.avgFillBlockSize = ws.fillBlockHist.mean();

    std::uint64_t strongly_biased_dyn = 0;
    for (const auto &[addr, site] : sites) {
        (void)addr;
        const double bias =
            static_cast<double>(std::max(site.taken,
                                         site.total - site.taken)) /
            site.total;
        if (bias >= 0.99)
            strongly_biased_dyn += site.total;
    }
    if (ws.condBranches > 0) {
        ws.fracDynStronglyBiased =
            static_cast<double>(strongly_biased_dyn) / ws.condBranches;
        ws.fracDynLongRun =
            static_cast<double>(long_run_execs) / ws.condBranches;
    }
    return ws;
}

} // namespace tcsim::workload
