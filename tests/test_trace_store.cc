/**
 * @file
 * Trace store tests: a cold write followed by a warm read reproduces
 * every TraceOp and AddrSpace object byte for byte; corrupt, truncated,
 * or version-mismatched files fall back to regeneration; parallel
 * generation is byte-identical at any job count; and concurrent warm
 * loads safely share one mapping.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/pool.hh"
#include "trace_store/trace_store.hh"
#include "workloads/registry.hh"

using namespace pact;

namespace
{

/** Self-cleaning store directory under the gtest temp root. */
struct StoreDir
{
    std::string path;

    StoreDir()
    {
        std::string tmpl = ::testing::TempDir() + "pact-store-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        const char *p = ::mkdtemp(buf.data());
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }

    ~StoreDir() { std::filesystem::remove_all(path); }

    std::string
    file(const std::string &key) const
    {
        return path + "/" + traceStoreFileName(key);
    }
};

/**
 * A bundle exercising every serialized feature: multiple objects (thp
 * and not, different procs), multiple traces (looping, empty-named,
 * zero-op), and every op kind including BigGap and dep flags.
 */
WorkloadBundle
syntheticBundle()
{
    WorkloadBundle b;
    b.name = "synthetic";
    const Addr a0 = b.as.alloc(0, "syn.table", 3 << 20, false);
    const Addr a1 = b.as.alloc(1, "syn.log", 5 << 20, true);

    Trace t0;
    t0.name = "writer";
    t0.proc = 0;
    t0.load(a0, true, 17);
    t0.store(a0 + 4096, 3);
    t0.compute(100);     // Nop
    t0.compute(1000000); // BigGap
    t0.markBegin(2);
    t0.load(a1, false, TraceOp::MaxGap);
    t0.markEnd();
    b.traces.push_back(std::move(t0));

    Trace t1;
    t1.proc = 1; // empty name on purpose
    t1.loop = true;
    for (int i = 0; i < 1000; i++)
        t1.store(a1 + static_cast<Addr>(i) * 64, i % 7);
    b.traces.push_back(std::move(t1));

    b.traces.emplace_back(); // zero-op trace
    b.traces.back().name = "empty";
    return b;
}

void
expectBundlesEqual(const WorkloadBundle &a, const std::string &name,
                   const AddrSpace &as, const std::vector<Trace> &traces)
{
    EXPECT_EQ(a.name, name);
    ASSERT_EQ(a.as.objects().size(), as.objects().size());
    for (std::size_t i = 0; i < as.objects().size(); i++) {
        const ObjectInfo &x = a.as.objects()[i];
        const ObjectInfo &y = as.objects()[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.proc, y.proc);
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.base, y.base);
        EXPECT_EQ(x.bytes, y.bytes);
        EXPECT_EQ(x.thp, y.thp);
    }
    EXPECT_EQ(a.as.totalPages(), as.totalPages());
    ASSERT_EQ(a.traces.size(), traces.size());
    for (std::size_t i = 0; i < traces.size(); i++) {
        const Trace &x = a.traces[i];
        const Trace &y = traces[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.proc, y.proc);
        EXPECT_EQ(x.loop, y.loop);
        ASSERT_EQ(x.ops.size(), y.ops.size());
        if (!x.ops.empty()) {
            EXPECT_EQ(std::memcmp(x.ops.data(), y.ops.data(),
                                  x.ops.size() * sizeof(TraceOp)),
                      0)
                << "trace " << i << " bytes differ";
        }
    }
}

/** XOR one byte of a store file in place. */
void
flipByte(const std::string &path, std::int64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    if (offset < 0) {
        f.seekg(0, std::ios::end);
        offset += static_cast<std::int64_t>(f.tellg());
    }
    f.seekg(offset);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0xff);
    f.seekp(offset);
    f.write(&c, 1);
}

std::uintmax_t
fileSize(const std::string &path)
{
    return std::filesystem::file_size(path);
}

} // namespace

TEST(TraceStore, ColdWriteWarmReadIsByteIdentical)
{
    StoreDir dir;
    const WorkloadBundle b = syntheticBundle();
    ASSERT_TRUE(traceStoreSave(dir.path, "synthetic-key", b.name, b.as,
                               b.traces));

    std::string name;
    AddrSpace as;
    std::vector<Trace> traces;
    ASSERT_TRUE(traceStoreLoad(dir.path, "synthetic-key", name, as,
                               traces));
    expectBundlesEqual(b, name, as, traces);

    // The warm ops are a zero-copy view of the mapping, not a copy.
    EXPECT_TRUE(traces[0].ops.mapped());
    EXPECT_TRUE(traces[1].ops.mapped());
}

TEST(TraceStore, MissingFileIsAQuietColdMiss)
{
    StoreDir dir;
    std::string name;
    AddrSpace as;
    std::vector<Trace> traces;
    EXPECT_FALSE(traceStoreLoad(dir.path, "nope", name, as, traces));
}

TEST(TraceStore, CorruptPayloadFallsBackToRegeneration)
{
    StoreDir dir;
    const WorkloadBundle b = syntheticBundle();
    ASSERT_TRUE(
        traceStoreSave(dir.path, "k", b.name, b.as, b.traces));
    flipByte(dir.file("k"), -1); // last byte of the last op array

    std::string name;
    AddrSpace as;
    std::vector<Trace> traces;
    EXPECT_FALSE(traceStoreLoad(dir.path, "k", name, as, traces));
}

TEST(TraceStore, TruncationFallsBackToRegeneration)
{
    StoreDir dir;
    const WorkloadBundle b = syntheticBundle();
    ASSERT_TRUE(
        traceStoreSave(dir.path, "k", b.name, b.as, b.traces));
    const std::string path = dir.file("k");

    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(fileSize(path) / 2)),
              0);
    std::string name;
    AddrSpace as;
    std::vector<Trace> traces;
    EXPECT_FALSE(traceStoreLoad(dir.path, "k", name, as, traces));

    // Shorter than the header entirely.
    ASSERT_EQ(::truncate(path.c_str(), 10), 0);
    EXPECT_FALSE(traceStoreLoad(dir.path, "k", name, as, traces));
}

TEST(TraceStore, VersionAndMagicMismatchesFallBack)
{
    StoreDir dir;
    const WorkloadBundle b = syntheticBundle();
    std::string name;
    AddrSpace as;
    std::vector<Trace> traces;

    // Header layout: magic@0, version@8, genHash@24.
    ASSERT_TRUE(traceStoreSave(dir.path, "k", b.name, b.as, b.traces));
    flipByte(dir.file("k"), 8); // schema version
    EXPECT_FALSE(traceStoreLoad(dir.path, "k", name, as, traces));

    ASSERT_TRUE(traceStoreSave(dir.path, "k", b.name, b.as, b.traces));
    flipByte(dir.file("k"), 24); // generator hash
    EXPECT_FALSE(traceStoreLoad(dir.path, "k", name, as, traces));

    ASSERT_TRUE(traceStoreSave(dir.path, "k", b.name, b.as, b.traces));
    flipByte(dir.file("k"), 0); // magic
    EXPECT_FALSE(traceStoreLoad(dir.path, "k", name, as, traces));

    // After a clean rewrite the file loads again.
    ASSERT_TRUE(traceStoreSave(dir.path, "k", b.name, b.as, b.traces));
    EXPECT_TRUE(traceStoreLoad(dir.path, "k", name, as, traces));
    expectBundlesEqual(b, name, as, traces);
}

TEST(TraceStore, ConcurrentWarmLoadsShareOneMapping)
{
    StoreDir dir;
    const WorkloadBundle b = syntheticBundle();
    ASSERT_TRUE(traceStoreSave(dir.path, "k", b.name, b.as, b.traces));

    constexpr std::size_t kLoaders = 8;
    std::vector<std::vector<Trace>> loaded(kLoaders);
    // char, not bool: std::vector<bool> packs slots into shared words,
    // so concurrent loaders writing neighbouring slots would race.
    std::vector<char> ok(kLoaders, 0);
    parallelFor(
        kLoaders,
        [&](std::size_t i) {
            std::string name;
            AddrSpace as;
            ok[i] = traceStoreLoad(dir.path, "k", name, as, loaded[i]);
        },
        kLoaders);
    for (std::size_t i = 0; i < kLoaders; i++) {
        ASSERT_TRUE(ok[i]);
        ASSERT_EQ(loaded[i].size(), b.traces.size());
        for (std::size_t t = 0; t < b.traces.size(); t++)
            ASSERT_EQ(loaded[i][t].ops.size(), b.traces[t].ops.size());
    }
}

TEST(TraceStore, CacheKeyIsBoundedAndSanitized)
{
    // The provable worst case of every field: all-ones scale bits, thp
    // on, maximal seed. This is exactly the static buffer's capacity.
    WorkloadOptions worst;
    std::uint64_t bits = ~0ull;
    std::memcpy(&worst.scale, &bits, sizeof(bits));
    worst.thp = true;
    worst.seed = ~0ull;
    const std::string key = workloadCacheKey("bc-kron", worst);
    EXPECT_EQ(key,
              "bc-kron|ffffffffffffffff|1|18446744073709551615");

    // Separators sanitize to '_'; everything else passes through.
    EXPECT_EQ(traceStoreFileName(key),
              "bc-kron_ffffffffffffffff_1_18446744073709551615"
              ".pacttrace");
    EXPECT_EQ(traceStoreFileName("a/b\\c d"), "a_b_c_d.pacttrace");
}

TEST(TraceStore, ParallelGenerationIsByteIdenticalToSerial)
{
    WorkloadOptions opt;
    opt.scale = 0.05;

    ASSERT_EQ(::setenv("PACT_JOBS", "1", 1), 0);
    const WorkloadBundle serialKron = makeWorkload("bc-kron", opt);
    const WorkloadBundle serialColoc =
        makeWorkload("masim-coloc", opt);
    ASSERT_EQ(::setenv("PACT_JOBS", "4", 1), 0);
    const WorkloadBundle parKron = makeWorkload("bc-kron", opt);
    const WorkloadBundle parColoc = makeWorkload("masim-coloc", opt);
    ASSERT_EQ(::unsetenv("PACT_JOBS"), 0);

    expectBundlesEqual(serialKron, parKron.name, parKron.as,
                       parKron.traces);
    expectBundlesEqual(serialColoc, parColoc.name, parColoc.as,
                       parColoc.traces);
}

TEST(TraceStore, MakeWorkloadSharedWarmPath)
{
    StoreDir dir;
    setTraceStoreDir(dir.path);
    clearWorkloadCache();

    WorkloadOptions opt;
    opt.scale = 0.05;
    WorkloadSource source = WorkloadSource::MemoryCache;

    const auto cold = makeWorkloadShared("masim", opt, &source);
    EXPECT_EQ(source, WorkloadSource::Generated);
    EXPECT_TRUE(std::filesystem::exists(
        dir.file(workloadCacheKey("masim", opt))));

    clearWorkloadCache();
    const auto warm = makeWorkloadShared("masim", opt, &source);
    EXPECT_EQ(source, WorkloadSource::DiskCache);
    expectBundlesEqual(*cold, warm->name, warm->as, warm->traces);
    EXPECT_TRUE(warm->traces[0].ops.mapped());

    const auto shared = makeWorkloadShared("masim", opt, &source);
    EXPECT_EQ(source, WorkloadSource::MemoryCache);
    EXPECT_EQ(shared.get(), warm.get());

    setTraceStoreDir("");
    clearWorkloadCache();
}
