#include "trace_store/trace_store.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <utility>

#include "common/error.hh"
#include "common/logging.hh"

namespace pact
{

namespace
{

constexpr char kMagic[8] = {'P', 'A', 'C', 'T', 'T', 'R', 'C', '1'};
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Op arrays are cache-line aligned inside the file. */
constexpr std::uint64_t kOpAlign = 64;

/**
 * Fixed 64-byte file header. The checksum covers every payload byte
 * in [64, fileBytes); generator and schema mismatches are detected
 * before any payload parse. All integers are little-endian host
 * layout (the store is a per-machine cache, not an interchange
 * format).
 */
struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t numObjects;
    std::uint32_t numTraces;
    std::uint32_t nameLen;
    std::uint64_t genHash;
    std::uint64_t fileBytes;
    std::uint64_t checksum;
    std::uint64_t reserved[2];
};
static_assert(sizeof(FileHeader) == 64, "header must stay 64 bytes");

/** One AddrSpace object, followed by nameLen name bytes (padded to 8). */
struct ObjectRec
{
    std::uint64_t base;
    std::uint64_t bytes;
    std::uint32_t id;
    std::uint32_t proc;
    std::uint32_t thp;
    std::uint32_t nameLen;
};
static_assert(sizeof(ObjectRec) == 32, "record layout is the format");

/** One trace, followed by nameLen name bytes (padded to 8). */
struct TraceRec
{
    std::uint64_t opCount;
    /** Absolute file offset of the packed TraceOp array. */
    std::uint64_t opOffset;
    std::uint32_t proc;
    std::uint32_t loop;
    std::uint32_t nameLen;
    std::uint32_t reserved;
};
static_assert(sizeof(TraceRec) == 32, "record layout is the format");

std::uint64_t
pad8(std::uint64_t n)
{
    return (n + 7) & ~std::uint64_t{7};
}

std::uint64_t
alignUp(std::uint64_t n, std::uint64_t a)
{
    return (n + a - 1) & ~(a - 1);
}

/** Fold a word-aligned buffer into a running checksum state. */
std::uint64_t
foldWords(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * kFnvPrime;
    }
    for (; i < bytes; i++)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

std::mutex dirMutex;
std::string dirOverride;

/** A shared read-only mapping; the last trace dropping it munmaps. */
struct Mapping
{
    void *addr = nullptr;
    std::size_t len = 0;

    ~Mapping()
    {
        if (addr)
            ::munmap(addr, len);
    }
};

/** Serialized metadata section (bundle name, objects, traces). */
std::vector<std::uint8_t>
buildMeta(const std::string &name, const AddrSpace &as,
          const std::vector<Trace> &traces,
          const std::vector<std::uint64_t> &opOffsets)
{
    std::vector<std::uint8_t> meta;
    auto put = [&meta](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        meta.insert(meta.end(), b, b + n);
    };
    auto putName = [&](const std::string &s) {
        put(s.data(), s.size());
        meta.resize(pad8(meta.size()), 0);
    };

    putName(name);
    for (const ObjectInfo &o : as.objects()) {
        ObjectRec rec = {};
        rec.base = o.base;
        rec.bytes = o.bytes;
        rec.id = o.id;
        rec.proc = o.proc;
        rec.thp = o.thp ? 1 : 0;
        rec.nameLen = static_cast<std::uint32_t>(o.name.size());
        put(&rec, sizeof(rec));
        putName(o.name);
    }
    for (std::size_t i = 0; i < traces.size(); i++) {
        const Trace &t = traces[i];
        TraceRec rec = {};
        rec.opCount = t.ops.size();
        rec.opOffset = opOffsets[i];
        rec.proc = t.proc;
        rec.loop = t.loop ? 1 : 0;
        rec.nameLen = static_cast<std::uint32_t>(t.name.size());
        put(&rec, sizeof(rec));
        putName(t.name);
    }
    return meta;
}

/** Bounds-checked reader over the mapped payload. */
class Cursor
{
  public:
    Cursor(const std::uint8_t *base, std::uint64_t size,
           std::uint64_t pos) :
        base_(base), size_(size), pos_(pos)
    {
    }

    bool
    read(void *out, std::uint64_t n)
    {
        if (pos_ + n > size_ || pos_ + n < pos_)
            return false;
        std::memcpy(out, base_ + pos_, n);
        pos_ += n;
        return true;
    }

    bool
    readString(std::string &out, std::uint32_t len)
    {
        const std::uint64_t padded = pad8(len);
        if (pos_ + padded > size_ || pos_ + padded < pos_)
            return false;
        out.assign(reinterpret_cast<const char *>(base_ + pos_), len);
        pos_ += padded;
        return true;
    }

  private:
    const std::uint8_t *base_;
    std::uint64_t size_;
    std::uint64_t pos_;
};

} // namespace

std::uint64_t
generatorVersionHash()
{
    return traceStoreChecksum(kTraceGenVersion,
                              sizeof(kTraceGenVersion) - 1);
}

std::uint64_t
traceStoreChecksum(const void *data, std::size_t bytes)
{
    return foldWords(kFnvOffset, data, bytes);
}

std::string
traceStoreDir()
{
    {
        std::lock_guard<std::mutex> lock(dirMutex);
        if (!dirOverride.empty())
            return dirOverride;
    }
    const char *env = std::getenv("PACT_TRACE_DIR");
    if (!env)
        return "";
    const std::string v(env);
    if (v == "0")
        return "";
    if (v.empty() || v == "1")
        return ".pact-traces";
    return v;
}

void
setTraceStoreDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(dirMutex);
    dirOverride = dir;
}

std::string
traceStoreFileName(const std::string &key)
{
    std::string out;
    out.reserve(key.size() + 10);
    for (const char c : key) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '_' || c == '-';
        out.push_back(keep ? c : '_');
    }
    return out + ".pacttrace";
}

bool
traceStoreLoad(const std::string &dir, const std::string &key,
               std::string &name, AddrSpace &as,
               std::vector<Trace> &traces)
{
    const std::string path = dir + "/" + traceStoreFileName(key);

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false; // cold miss: not a warning

    auto fail = [&path](const char *why) {
        warn("trace store: ignoring ", path, " (", why,
             "); regenerating");
        return false;
    };

    struct ::stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail("unreadable");
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size < sizeof(FileHeader)) {
        ::close(fd);
        return fail("truncated header");
    }

    void *addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (addr == MAP_FAILED)
        return fail("mmap failed");
    auto mapping = std::make_shared<Mapping>();
    mapping->addr = addr;
    mapping->len = size;
    const auto *bytes = static_cast<const std::uint8_t *>(addr);

    FileHeader hdr;
    std::memcpy(&hdr, bytes, sizeof(hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        return fail("bad magic");
    if (hdr.version != kTraceStoreVersion)
        return fail("schema version mismatch");
    if (hdr.genHash != generatorVersionHash())
        return fail("generator version mismatch");
    if (hdr.fileBytes != size)
        return fail("truncated payload");
    const std::uint64_t sum = traceStoreChecksum(
        bytes + sizeof(hdr), size - sizeof(hdr));
    if (sum != hdr.checksum)
        return fail("checksum mismatch");

    Cursor cur(bytes, size, sizeof(hdr));
    std::string bundleName;
    if (!cur.readString(bundleName, hdr.nameLen))
        return fail("corrupt bundle name");

    std::vector<ObjectInfo> objects;
    objects.reserve(hdr.numObjects);
    for (std::uint32_t i = 0; i < hdr.numObjects; i++) {
        ObjectRec rec;
        ObjectInfo obj;
        if (!cur.read(&rec, sizeof(rec)) ||
            !cur.readString(obj.name, rec.nameLen))
            return fail("corrupt object registry");
        obj.id = rec.id;
        obj.proc = rec.proc;
        obj.base = rec.base;
        obj.bytes = rec.bytes;
        obj.thp = rec.thp != 0;
        objects.push_back(std::move(obj));
    }

    std::vector<Trace> loaded(hdr.numTraces);
    for (std::uint32_t i = 0; i < hdr.numTraces; i++) {
        TraceRec rec;
        Trace &t = loaded[i];
        if (!cur.read(&rec, sizeof(rec)) ||
            !cur.readString(t.name, rec.nameLen))
            return fail("corrupt trace directory");
        const std::uint64_t opBytes = rec.opCount * sizeof(TraceOp);
        if (rec.opOffset % sizeof(TraceOp) != 0 ||
            rec.opOffset < sizeof(hdr) || rec.opOffset > size ||
            opBytes > size - rec.opOffset)
            return fail("trace ops out of bounds");
        t.proc = rec.proc;
        t.loop = rec.loop != 0;
        // Zero-copy: the span aliases the shared mapping, which stays
        // alive (and shared page-cache backed) until the last trace
        // drops it.
        t.ops.adopt(
            std::shared_ptr<const void>(mapping, bytes + rec.opOffset),
            reinterpret_cast<const TraceOp *>(bytes + rec.opOffset),
            rec.opCount);
    }

    try {
        as.restore(std::move(objects));
    } catch (const SimError &e) {
        return fail(e.what());
    }
    name = std::move(bundleName);
    traces = std::move(loaded);
    return true;
}

bool
traceStoreSave(const std::string &dir, const std::string &key,
               const std::string &name, const AddrSpace &as,
               const std::vector<Trace> &traces)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("trace store: cannot create ", dir, " (", ec.message(),
             "); not persisting");
        return false;
    }

    // Lay out the op arrays (cache-line aligned) after the metadata.
    std::vector<std::uint64_t> opOffsets(traces.size(), 0);
    {
        // Meta size is independent of the offsets, so compute it with
        // placeholder offsets first.
        const std::uint64_t metaBytes =
            buildMeta(name, as, traces, opOffsets).size();
        std::uint64_t at = alignUp(sizeof(FileHeader) + metaBytes,
                                   kOpAlign);
        for (std::size_t i = 0; i < traces.size(); i++) {
            opOffsets[i] = at;
            at = alignUp(at + traces[i].ops.size() * sizeof(TraceOp),
                         kOpAlign);
        }
    }
    const std::vector<std::uint8_t> meta =
        buildMeta(name, as, traces, opOffsets);

    FileHeader hdr = {};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kTraceStoreVersion;
    hdr.numObjects = static_cast<std::uint32_t>(as.objects().size());
    hdr.numTraces = static_cast<std::uint32_t>(traces.size());
    hdr.nameLen = static_cast<std::uint32_t>(name.size());
    hdr.genHash = generatorVersionHash();
    hdr.fileBytes =
        traces.empty()
            ? alignUp(sizeof(FileHeader) + meta.size(), kOpAlign)
            : opOffsets.back() +
                  traces.back().ops.size() * sizeof(TraceOp);

    // Checksum the payload exactly as it will land on disk: metadata,
    // alignment zeros, then each op array (sections are all 8-byte
    // multiples, so word-wise folding composes across them).
    static const std::uint8_t zeros[kOpAlign] = {};
    std::uint64_t sum = kFnvOffset;
    std::uint64_t at = sizeof(FileHeader);
    sum = foldWords(sum, meta.data(), meta.size());
    at += meta.size();
    auto padTo = [&](std::uint64_t target, auto &&emit) {
        while (at < target) {
            const std::uint64_t n =
                std::min<std::uint64_t>(target - at, sizeof(zeros));
            emit(zeros, n);
            at += n;
        }
    };
    auto sumBytes = [&sum](const void *p, std::uint64_t n) {
        sum = foldWords(sum, p, n);
    };
    for (std::size_t i = 0; i < traces.size(); i++) {
        padTo(opOffsets[i], sumBytes);
        sumBytes(traces[i].ops.data(),
                 traces[i].ops.size() * sizeof(TraceOp));
        at += traces[i].ops.size() * sizeof(TraceOp);
    }
    padTo(hdr.fileBytes, sumBytes);
    hdr.checksum = sum;

    // Unique temp name per process AND per call: concurrent saves of
    // the same key (from separate processes sharing one store, or
    // after clearWorkloadCache()) must not tear each other.
    static std::atomic<std::uint64_t> saveSeq{0};
    const std::string path = dir + "/" + traceStoreFileName(key);
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(saveSeq.fetch_add(1));

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("trace store: cannot write ", tmp, " (",
             std::strerror(errno), "); not persisting");
        return false;
    }
    bool ok = true;
    auto writeBytes = [&](const void *p, std::uint64_t n) {
        // n == 0 (a zero-op trace) may come with a null pointer.
        ok = ok && (n == 0 || std::fwrite(p, 1, n, f) == n);
    };
    writeBytes(&hdr, sizeof(hdr));
    at = sizeof(FileHeader);
    writeBytes(meta.data(), meta.size());
    at += meta.size();
    for (std::size_t i = 0; i < traces.size() && ok; i++) {
        padTo(opOffsets[i], writeBytes);
        writeBytes(traces[i].ops.data(),
                   traces[i].ops.size() * sizeof(TraceOp));
        at += traces[i].ops.size() * sizeof(TraceOp);
    }
    if (ok)
        padTo(hdr.fileBytes, writeBytes);
    ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        warn("trace store: short write to ", tmp, "; not persisting");
        std::remove(tmp.c_str());
        return false;
    }
    // Atomic publish: concurrent readers see the old file or the new
    // one, never a torn mix.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("trace store: cannot publish ", path, " (",
             std::strerror(errno), ")");
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace pact
