/**
 * @file
 * Shared helpers for the per-figure bench binaries.
 */

#ifndef PACT_BENCH_BENCH_UTIL_HH
#define PACT_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "harness/runner.hh"
#include "obs/export.hh"

namespace pact
{

/** Standard bench preamble: banner, scale report. */
inline double
benchSetup(const std::string &title, double default_scale = 1.0)
{
    const double scale = envScale(default_scale);
    std::printf("==============================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("(workload scale %.2f; set PACT_SCALE to adjust)\n",
                scale);
    std::printf("==============================================\n");
    return scale;
}

/** Format a slowdown percentage. */
inline std::string
pct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", v);
    return buf;
}

/**
 * Drop a run-manifest JSON for a figure driver when the environment
 * opts in: with PACT_ARTIFACTS_DIR set, writes
 * `$PACT_ARTIFACTS_DIR/<producer>.manifest.json`; otherwise a no-op so
 * the figure binaries stay pure stdout tools by default.
 *
 * @return Path written, or empty when artifacts are not enabled.
 */
inline std::string
writeBenchManifest(
    const std::string &producer, const SimConfig &cfg,
    const std::vector<RunResult> &results,
    std::vector<std::pair<std::string, double>> params = {},
    std::vector<std::pair<std::string, std::string>> text_params = {})
{
    const char *dir = std::getenv("PACT_ARTIFACTS_DIR");
    if (!dir || !dir[0])
        return {};
    obs::RunManifest m;
    m.kind = "bench";
    m.producer = producer;
    m.config = cfg;
    m.params = std::move(params);
    m.textParams = std::move(text_params);
    for (const RunResult &r : results)
        m.results.push_back(manifestResult(r));
    const std::string path =
        std::string(dir) + "/" + producer + ".manifest.json";
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        warn("cannot open ", path, "; bench manifest skipped");
        return {};
    }
    obs::writeRunManifest(os, m);
    std::printf("\n[artifact] wrote %s (%zu results)\n", path.c_str(),
                m.results.size());
    return path;
}

} // namespace pact

#endif // PACT_BENCH_BENCH_UTIL_HH
