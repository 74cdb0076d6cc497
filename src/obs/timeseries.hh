/**
 * @file
 * Per-window time-series recorder: sampled after every fixed
 * daemon-period window of a run, it emits one JSONL row per window
 * with every registered stat — counters as per-window deltas, gauges
 * as levels. Rows are canonical (name-sorted fields, deterministic
 * number formatting), so the artifact is byte-identical for any
 * PACT_JOBS.
 */

#ifndef PACT_OBS_TIMESERIES_HH
#define PACT_OBS_TIMESERIES_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace pact
{

namespace obs
{

/**
 * Streams JSONL rows of stat deltas. The first sample() captures the
 * registry's layout and writes a schema header line; later samples
 * must come from a registry with the same layout.
 */
class TimeSeriesRecorder
{
  public:
    /**
     * @param os Destination stream (one JSON document per line).
     * @param window Window length in cycles (typically the daemon
     *               period); the Runner drives the engine in these
     *               steps.
     */
    TimeSeriesRecorder(std::ostream &os, Cycles window);

    Cycles window() const { return window_; }

    /**
     * Emit one row covering [t0, t1): counter deltas since the prior
     * sample (or run start), gauge levels at t1.
     */
    void sample(const StatRegistry &reg, Cycles t0, Cycles t1);

    /** Rows emitted so far (excluding the header line). */
    std::uint64_t rows() const { return rows_; }

  private:
    std::ostream &os_;
    Cycles window_;
    std::uint64_t rows_ = 0;
    bool headerWritten_ = false;
    std::vector<std::string> names_;
    std::vector<StatKind> kinds_;
    std::vector<double> prev_;
    /** Registered distribution names (layout captured like names_). */
    std::vector<std::string> distNames_;
    /** Previous cumulative bin arrays, one kNumBins row per dist. */
    std::vector<std::vector<std::uint64_t>> prevBins_;
    /** Previous cumulative counts, aligned with distNames_. */
    std::vector<std::uint64_t> prevCount_;
};

} // namespace obs

} // namespace pact

#endif // PACT_OBS_TIMESERIES_HH
