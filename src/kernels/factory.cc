#include "factory.hh"

#include <stdexcept>

#include "blast_traced.hh"
#include "fasta_traced.hh"
#include "ssearch_traced.hh"
#include "sw_vmx_traced.hh"

namespace bioarch::kernels
{

TracedRun
traceWorkload(Workload workload, const TraceInput &input)
{
    // Traces are returned as built: their growth headroom was
    // never touched, so it is not resident, and shrinking it would
    // copy the whole trace.
    switch (workload) {
      case Workload::Ssearch34:
        return traceSsearch(input);
      case Workload::SwVmx128:
        return traceSwVmx128(input);
      case Workload::SwVmx256:
        return traceSwVmx256(input);
      case Workload::Fasta34:
        return traceFasta(input);
      case Workload::Blast:
        return traceBlast(input);
      case Workload::Blastn: // served-only, never traced here
      case Workload::NumWorkloads:
        break;
    }
    throw std::invalid_argument("unknown workload");
}

TracedRun
traceWorkload(Workload workload, const TraceSpec &spec)
{
    return traceWorkload(workload, makeTraceInput(spec));
}

} // namespace bioarch::kernels
