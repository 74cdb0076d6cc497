#include "workloads/registry.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>

#include "common/error.hh"
#include "common/logging.hh"
#include "trace_store/trace_store.hh"
#include "workloads/gpt2.hh"
#include "workloads/graph.hh"
#include "workloads/graph_kernels.hh"
#include "workloads/gups.hh"
#include "workloads/masim.hh"
#include "workloads/redis.hh"
#include "workloads/silo.hh"
#include "workloads/spec.hh"

namespace pact
{

namespace
{

/** Map the continuous scale option onto a graph log2 scale. */
std::uint32_t
graphScale(std::uint32_t base, double scale)
{
    int adj = 0;
    double s = scale;
    while (s < 0.75 && base + adj > 10) {
        s *= 2.0;
        adj--;
    }
    while (s > 1.5) {
        s *= 0.5;
        adj++;
    }
    return static_cast<std::uint32_t>(static_cast<int>(base) + adj);
}

WorkloadBundle
makeGraphBundle(const std::string &name, const WorkloadOptions &opt)
{
    WorkloadBundle b;
    b.name = name;
    Rng rng(opt.seed);
    KernelLimits lim;
    lim.maxOps = scaled(14000000, opt.scale, 200000);

    if (name == "bc-kron") {
        // GAPBS bc iterates several sources; hub pages are reused
        // across iterations, which is the structure PAC exploits.
        CsrGraph g = buildRmat(graphScale(18, opt.scale), 12, {}, rng);
        allocGraph(b.as, 0, "bckron", g, opt.thp);
        b.traces.push_back(bcTrace(b.as, 0, g, 3, lim, opt.thp));
    } else if (name == "bc-urand") {
        CsrGraph g = buildUniform(graphScale(18, opt.scale), 12, rng);
        allocGraph(b.as, 0, "bcurand", g, opt.thp);
        b.traces.push_back(bcTrace(b.as, 0, g, 3, lim, opt.thp));
    } else if (name == "bc-twitter") {
        CsrGraph g = buildTwitterLike(graphScale(17, opt.scale), 16, rng);
        allocGraph(b.as, 0, "bctw", g, opt.thp);
        b.traces.push_back(bcTrace(b.as, 0, g, 3, lim, opt.thp));
    } else if (name == "sssp-kron") {
        CsrGraph g = buildRmat(graphScale(17, opt.scale), 12, {}, rng);
        allocGraph(b.as, 0, "ssspkron", g, opt.thp, true);
        b.traces.push_back(ssspTrace(b.as, 0, g, 0, lim, opt.thp));
    } else if (name == "tc-twitter") {
        CsrGraph g = buildTwitterLike(graphScale(16, opt.scale), 14, rng);
        allocGraph(b.as, 0, "tctw", g, opt.thp);
        b.traces.push_back(tcTrace(b.as, 0, g, lim, opt.thp));
    } else if (name == "pr-kron") {
        CsrGraph g = buildRmat(graphScale(18, opt.scale), 12, {}, rng);
        allocGraph(b.as, 0, "prkron", g, opt.thp);
        b.traces.push_back(prTrace(b.as, 0, g, 4, lim, opt.thp));
    } else if (name == "cc-kron") {
        CsrGraph g = buildRmat(graphScale(18, opt.scale), 12, {}, rng);
        allocGraph(b.as, 0, "cckron", g, opt.thp);
        b.traces.push_back(ccTrace(b.as, 0, g, lim, opt.thp));
    } else if (name == "bfs-kron") {
        CsrGraph g = buildRmat(graphScale(18, opt.scale), 12, {}, rng);
        allocGraph(b.as, 0, "bfskron", g, opt.thp);
        b.traces.push_back(bfsTrace(b.as, 0, g, 0, lim, opt.thp));
    } else {
        throw_workload("unknown graph workload '", name, "'");
    }
    b.traces.back().name = name;
    return b;
}

} // namespace

namespace
{

WorkloadBundle
buildByName(const std::string &name, const WorkloadOptions &opt)
{
    if (name == "masim")
        return makeMasimDefault(opt);
    if (name == "masim-coloc")
        return makeMasimColocation(opt);
    if (name.rfind("masim-coloc", 0) == 0 && name.size() > 11) {
        // "masim-coloc<N>": N-process colocation for the multi-tenant
        // engine (one pointer-chase victim + N-1 streamers).
        char *end = nullptr;
        const unsigned long n = std::strtoul(name.c_str() + 11, &end, 10);
        throw_workload_if(!end || *end != '\0',
                          "unknown workload '", name, "'");
        return makeMasimColocationN(static_cast<unsigned>(n), opt);
    }
    if (name == "pac-inversion")
        return makePacInversion(opt);
    if (name == "gups")
        return makeGups(opt);
    if (name == "gpt2")
        return makeGpt2(opt);
    if (name == "silo")
        return makeSilo(opt);
    if (name == "redis")
        return makeRedis(opt);
    if (name == "bwaves")
        return makeBwaves(opt);
    if (name == "xz")
        return makeXz(opt);
    if (name == "deepsjeng")
        return makeDeepsjeng(opt);
    if (name == "redis-a" || name == "redis-b") {
        // YCSB-A (50% updates) and YCSB-B (5% updates) mixes.
        WorkloadBundle b;
        b.name = name;
        Rng rng(opt.seed);
        RedisParams p;
        p.keys = scaled(400000, opt.scale, 20000);
        p.operations = scaled(400000, opt.scale, 20000);
        p.readRatio = name == "redis-a" ? 0.5 : 0.95;
        b.traces.push_back(buildRedis(b.as, 0, p, rng, opt.thp));
        return b;
    }
    if (name.rfind("bc-", 0) == 0 || name.rfind("sssp-", 0) == 0 ||
        name.rfind("tc-", 0) == 0 || name.rfind("bfs-", 0) == 0 ||
        name.rfind("pr-", 0) == 0 || name.rfind("cc-", 0) == 0) {
        return makeGraphBundle(name, opt);
    }
    throw_workload("unknown workload '", name, "'");
}

} // namespace

WorkloadBundle
makeWorkload(const std::string &name, const WorkloadOptions &opt)
{
    WorkloadBundle b = buildByName(name, opt);
    prependInitPass(b);
    return b;
}

namespace
{

using BundlePtr = std::shared_ptr<const WorkloadBundle>;

std::mutex bundleCacheMutex;
std::map<std::string, std::shared_future<BundlePtr>> bundleCache;

/**
 * Disk-cache-then-generate: warm-load the bundle from the trace store
 * when enabled, else build it and persist the result for the next
 * process. Store problems only ever cost a regeneration.
 */
BundlePtr
buildOrLoad(const std::string &name, const WorkloadOptions &opt,
            const std::string &key, WorkloadSource &source)
{
    const std::string dir = traceStoreDir();
    if (!dir.empty()) {
        auto warm = std::make_shared<WorkloadBundle>();
        if (traceStoreLoad(dir, key, warm->name, warm->as,
                           warm->traces)) {
            source = WorkloadSource::DiskCache;
            return warm;
        }
    }
    auto built =
        std::make_shared<WorkloadBundle>(makeWorkload(name, opt));
    source = WorkloadSource::Generated;
    if (!dir.empty())
        traceStoreSave(dir, key, built->name, built->as, built->traces);
    return built;
}

} // namespace

std::string
workloadCacheKey(const std::string &name, const WorkloadOptions &opt)
{
    // Options are keyed by value, scale by bit pattern. The buffer is
    // sized from the format's provable worst case (16 hex digits, one
    // bool digit, a full 20-digit uint64), not a guessed round number.
    constexpr char kWorst[] = "|ffffffffffffffff|1|18446744073709551615";
    char buf[sizeof(kWorst)];
    static_assert(sizeof(buf) == 1 + 16 + 1 + 1 + 1 + 20 + 1,
                  "key buffer must fit the widest possible fields");
    const int n =
        std::snprintf(buf, sizeof(buf), "|%016llx|%d|%llu",
                      static_cast<unsigned long long>(
                          std::bit_cast<std::uint64_t>(opt.scale)),
                      opt.thp ? 1 : 0,
                      static_cast<unsigned long long>(opt.seed));
    throw_workload_if(n < 0 ||
                          static_cast<std::size_t>(n) >= sizeof(buf),
                      "workloadCacheKey: options overflow the key "
                      "format");
    return name + buf;
}

std::shared_ptr<const WorkloadBundle>
makeWorkloadShared(const std::string &name, const WorkloadOptions &opt)
{
    return makeWorkloadShared(name, opt, nullptr);
}

std::shared_ptr<const WorkloadBundle>
makeWorkloadShared(const std::string &name, const WorkloadOptions &opt,
                   WorkloadSource *source)
{
    const std::string key = workloadCacheKey(name, opt);
    WorkloadSource src = WorkloadSource::MemoryCache;

    // First caller for a key installs the future and builds outside
    // the lock; concurrent callers for the same key wait on the same
    // result (the Runner baseline-cache pattern).
    std::promise<BundlePtr> promise;
    std::shared_future<BundlePtr> future;
    bool build = false;
    {
        std::lock_guard<std::mutex> lock(bundleCacheMutex);
        auto it = bundleCache.find(key);
        if (it == bundleCache.end()) {
            future = promise.get_future().share();
            bundleCache.emplace(key, future);
            build = true;
        } else {
            future = it->second;
        }
    }
    if (build) {
        try {
            promise.set_value(buildOrLoad(name, opt, key, src));
        } catch (...) {
            // Wake every waiter with the error, then drop the entry so
            // a later call can retry (e.g. transient bad options).
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(bundleCacheMutex);
            bundleCache.erase(key);
            return future.get(); // rethrows for this caller
        }
    }
    if (source)
        *source = src;
    return future.get();
}

void
clearWorkloadCache()
{
    std::lock_guard<std::mutex> lock(bundleCacheMutex);
    bundleCache.clear();
}

const std::vector<std::string> &
figureSixWorkloads()
{
    static const std::vector<std::string> names = {
        "bc-kron",    "bc-urand", "bc-twitter", "sssp-kron",
        "tc-twitter", "gups",     "gpt2",       "silo",
        "bwaves",     "xz",       "deepsjeng",  "masim",
    };
    return names;
}

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names = {
        "bc-kron",    "bc-urand", "bc-twitter", "sssp-kron",
        "tc-twitter", "gups",     "gpt2",       "silo",
        "bwaves",     "xz",       "deepsjeng",  "masim",
        "redis",      "bfs-kron", "pr-kron", "cc-kron",
        "redis-a",    "redis-b",
    };
    return names;
}

} // namespace pact
