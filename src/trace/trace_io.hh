/**
 * @file
 * Binary trace file format: persist generated traces so expensive
 * workloads are traced once and simulated many times across runs
 * (the role Aria trace files played in the paper's methodology).
 *
 * Format v2 (magic "BIOTRC02"): a fixed 24-byte header (magic,
 * name length, static-table size, instruction count), the name,
 * the static table (8-byte StaticInst entries), then one 12-byte
 * Record per dynamic instruction. The reader checks every size in
 * the header against plausibility and the bytes left in the stream
 * before allocating, and every record's static index and source
 * distances as it reads them. Version 1 files (28-byte records)
 * are rejected; regenerate them with `--save-trace`. The format is
 * endianness-naive (little-endian hosts only), which every
 * platform this library targets satisfies.
 */

#ifndef BIOARCH_TRACE_TRACE_IO_HH
#define BIOARCH_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "trace.hh"

namespace bioarch::trace
{

/** Thrown on malformed trace files or I/O failure. */
class TraceIoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Write @p trace to a binary stream. @throws TraceIoError */
void writeTrace(std::ostream &out, const Trace &trace);

/** Write @p trace to a file. @throws TraceIoError */
void writeTraceFile(const std::string &path, const Trace &trace);

/** Read a trace from a seekable binary stream (the header is
 * checked against the stream's length). @throws TraceIoError */
Trace readTrace(std::istream &in);

/** Read a trace from a file. @throws TraceIoError */
Trace readTraceFile(const std::string &path);

} // namespace bioarch::trace

#endif // BIOARCH_TRACE_TRACE_IO_HH
