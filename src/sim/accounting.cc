#include "sim/accounting.h"

#include <iomanip>

namespace tcsim::sim
{

const char *
cycleCategoryName(CycleCategory category)
{
    switch (category) {
      case CycleCategory::UsefulFetch: return "UsefulFetch";
      case CycleCategory::BranchMisses: return "BranchMisses";
      case CycleCategory::CacheMisses: return "CacheMisses";
      case CycleCategory::FullWindow: return "FullWindow";
      case CycleCategory::Traps: return "Traps";
      case CycleCategory::Misfetches: return "Misfetches";
      default: return "?";
    }
}

const char *
fetchReasonName(FetchReason reason)
{
    switch (reason) {
      case FetchReason::PartialMatch: return "PartialMatch";
      case FetchReason::AtomicBlocks: return "AtomicBlocks";
      case FetchReason::ICache: return "ICache";
      case FetchReason::MispredBR: return "MispredBR";
      case FetchReason::MaxSize: return "MaxSize";
      case FetchReason::RetIndirTrap: return "Ret,Indir,Trap";
      case FetchReason::MaximumBRs: return "MaximumBRs";
      default: return "?";
    }
}

void
deriveRatios(SimResult &result)
{
    const auto ratioOf = [](std::uint64_t numerator,
                            std::uint64_t denominator) {
        return denominator == 0
                   ? 0.0
                   : static_cast<double>(numerator) / denominator;
    };
    result.ipc = ratioOf(result.instructions, result.cycles);
    result.effectiveFetchRate =
        ratioOf(result.fetchedInsts, result.usefulFetches);
    result.condMispredictRate =
        ratioOf(result.condMispredicts, result.condBranches);
    result.meanResolutionTime =
        ratioOf(result.resolutionTimeSum, result.resolutionTimeCount);
    result.fetchesNeeding01 =
        ratioOf(result.fetchesNeedingPreds[0] + result.fetchesNeedingPreds[1],
                result.usefulFetches);
    result.fetchesNeeding2 =
        ratioOf(result.fetchesNeedingPreds[2], result.usefulFetches);
    result.fetchesNeeding3 =
        ratioOf(result.fetchesNeedingPreds[3], result.usefulFetches);
}

void
printStatsWithDerivedRatios(const StatDump &dump, std::ostream &os)
{
    const auto emit = [&os](const std::string &name, double value) {
        os << std::left << std::setw(44) << name << " "
           << std::setprecision(6) << value << "\n";
    };
    const auto &entries = dump.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &[name, value] = entries[i];
        emit(name, value);
        const auto dot = name.rfind('.');
        if (dot == std::string::npos ||
            name.compare(dot, std::string::npos, ".misses") != 0 || i == 0)
            continue;
        const std::string prefix = name.substr(0, dot);
        const auto &[prev_name, accesses] = entries[i - 1];
        if (prev_name == prefix + ".accesses")
            emit(prefix + ".miss_ratio",
                 accesses == 0.0 ? 0.0 : value / accesses);
    }
}

} // namespace tcsim::sim
