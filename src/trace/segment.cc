#include "trace/segment.h"

#include <sstream>

namespace tcsim::trace
{

const char *
fillReasonName(FillReason reason)
{
    switch (reason) {
      case FillReason::MaxSize: return "MaxSize";
      case FillReason::MaxBranches: return "MaxBranches";
      case FillReason::AtomicBlock: return "AtomicBlock";
      case FillReason::RetIndirTrap: return "RetIndirTrap";
      case FillReason::Resync: return "Resync";
    }
    return "?";
}

void
TraceSegment::resetForReuse()
{
    startAddr = kInvalidAddr;
    insts.clear();
    reason = FillReason::MaxSize;
    numBlockBranches = 0;
    hasTightBackwardBranch = false;
}

std::string
TraceSegment::toString() const
{
    std::ostringstream os;
    os << "segment@0x" << std::hex << startAddr << std::dec << " ["
       << insts.size() << " insts, " << numBlockBranches << " branches, "
       << fillReasonName(reason) << "]";
    return os.str();
}

} // namespace tcsim::trace
