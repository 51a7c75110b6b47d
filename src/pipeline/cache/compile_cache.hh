/**
 * @file
 * The persistent, content-addressed compile cache.
 *
 * Repeat traffic dominates the workloads this system serves: every
 * batch driver, bench binary and CI job recompiles the same
 * 1327-loop suite on the same machines with the same options. A
 * CompileCache makes that reuse explicit. Compiles are keyed by a
 * CacheKey -- the hash of the exact loop image (packDfg), the machine
 * image hash and the result-relevant pipeline options -- and full
 * CompileResults are stored in a versioned binary format, one file
 * per key, under a cache directory shared across processes. Keying
 * by the exact image means two distinct loops never share an entry
 * (short of a 64-bit hash collision), so the first write of an entry
 * wins without locking any other loop out.
 *
 * Safety model ("trust but verify"):
 *
 *  - a hash hit is never served on faith: the entry stores the exact
 *    byte images of the input graph and machine, and both must match
 *    the request verbatim (so an image-hash collision degrades to a
 *    miss);
 *  - a served schedule is re-checked by the independent verifier
 *    before it leaves the cache; a corrupted or stale entry is
 *    dropped (and unlinked in rw mode), again degrading to a miss;
 *  - entries are written to a temp file and atomically renamed, so
 *    concurrent writers and crashed processes can never publish a
 *    torn entry; readers treat any truncation, bad magic, version
 *    mismatch or checksum failure as a miss.
 *
 * A hit therefore costs the key (the graph and machine images packed
 * into a reused per-thread buffer and hashed), one file read, the
 * checksum, a decode of the stored result, the image gates (one byte
 * compare each) and the verifier pass. A miss runs the cold search
 * from MII; nothing else is read or written, so the cache is a pure
 * memo: every result is a function of (loop, machine, options) alone,
 * whatever the cache has seen.
 *
 * Thread safety: the in-memory index is sharded (one mutex per
 * shard) so hit serving scales under the pipeline/batch thread pool;
 * entry files are immutable once published and are read without any
 * lock. One CompileCache may be shared by every job of a batch.
 */

#ifndef CAMS_PIPELINE_CACHE_COMPILE_CACHE_HH
#define CAMS_PIPELINE_CACHE_COMPILE_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "pipeline/cache/hash.hh"
#include "pipeline/driver.hh"
#include "support/metrics.hh"

namespace cams
{

class ResourceModel;

/** How a cache participates in a run. */
enum class CacheMode
{
    Off,       ///< never consulted
    ReadOnly,  ///< hits served, nothing written
    ReadWrite, ///< hits served, misses stored
};

/** Stable name of a cache mode ("off", "ro", "rw"). */
const char *cacheModeName(CacheMode mode);

/** Parses a mode name; returns false on unknown input. */
bool parseCacheMode(const std::string &text, CacheMode &out);

/** Content address of one compile. */
struct CacheKey
{
    uint64_t imageHash = 0;   ///< hashBytes(packDfg(graph))
    uint64_t machineHash = 0; ///< hash of the machine byte image
    uint64_t optionsHash = 0; ///< result-relevant options + schema

    /** Identity of the full-result entry (image, machine, options). */
    uint64_t entryId() const;

    /** Entry file name: 16 hex digits of entryId() + ".cce". */
    std::string fileName() const;
};

/**
 * Derives the content address of one compile. Everything that can
 * change the CompileResult participates: the exact loop image, the
 * machine image, the scheduler choice, the assignment policy knobs,
 * fallback/iiSlack, the backend and the exact arm's budgets, the time
 * budget, the clustered-vs-unified path and the tenant namespace salt
 * (CompileOptions::cacheSalt). Deliberately excluded:
 * trace/metrics configuration (observability never changes results)
 * and the fault injector (fault-injected compiles bypass the cache
 * entirely).
 */
CacheKey makeCacheKey(const Dfg &graph, const MachineDesc &machine,
                      const CompileOptions &options, bool clustered);

/** Outcome of one cache-directory scrub pass. */
struct ScrubReport
{
    long entriesScanned = 0;   ///< .cce files examined
    long entriesOk = 0;        ///< entries that validated fully
    long quarantined = 0;      ///< files moved to corrupt/
    long tmpRemoved = 0;       ///< leftover .tmp-* writer files deleted

    /** Non-empty when the scrub itself could not run. */
    std::string error;
};

/**
 * Validates every .cce entry in @p directory -- magic, format
 * version, stored-hash/file-name consistency, payload checksum, and
 * a full decode of the embedded graph/machine/result images -- and
 * quarantines anything torn, truncated or bit-rotted into
 * <directory>/corrupt/ (moved, never deleted, so forensics survive).
 * Leftover .tmp-* files from writers killed mid-store are removed;
 * any other file is left alone. Designed for startup and offline
 * use (camsd runs it on every tenant directory before serving;
 * cams_scrub runs it standalone); racing it against live lookups in
 * another process is safe -- an entry quarantined mid-lookup
 * degrades to a miss -- but wasteful.
 */
ScrubReport scrubCacheDir(const std::string &directory);

/** Persistent content-addressed store of CompileResults. */
class CompileCache
{
  public:
    /**
     * Opens (rw: creates) the cache directory and loads the entry
     * index. A directory that cannot be opened disables the cache
     * (enabled() false) instead of failing the run; the error is kept
     * for the caller to report.
     */
    CompileCache(std::string directory, CacheMode mode);

    CacheMode mode() const { return mode_; }
    const std::string &directory() const { return directory_; }

    /** True when lookups can be served at all. */
    bool enabled() const { return mode_ != CacheMode::Off && ok_; }

    /** Non-empty when the directory could not be opened. */
    const std::string &openError() const { return openError_; }

    /**
     * Serves a full-result hit. The request graph and machine must
     * match the stored images byte-for-byte and a stored schedule
     * must re-verify; anything else counts as a miss. @return true
     * and fills @p out on a hit.
     */
    bool lookup(const CacheKey &key, const Dfg &graph,
                const MachineDesc &machine, CompileResult &out);

    /**
     * Publishes a finished compile (ReadWrite only; no-op
     * otherwise). First write of a key wins; entries are immutable.
     */
    void store(const CacheKey &key, const Dfg &graph,
               const MachineDesc &machine,
               const CompileResult &result);

    /**
     * Runs scrubCacheDir() on this cache's directory, then rebuilds
     * the in-memory entry index from what survived (ReadWrite only).
     * Not meant to run concurrently with lookups through this object:
     * run it before serving.
     */
    ScrubReport scrub();

    /** Cache-wide accounting (monotonic over this object's life). */
    struct Totals
    {
        long hits = 0;          ///< full-result lookups served
        long misses = 0;        ///< lookups that found nothing usable
        long rejects = 0;       ///< entries dropped by validation
        long bytesRead = 0;     ///< entry bytes deserialized
        long bytesWritten = 0;  ///< entry bytes published
        long entries = 0;       ///< entries indexed right now
        long bytesOnDisk = 0;   ///< sum of indexed entry sizes
        long quarantined = 0;   ///< files scrub() moved to corrupt/
    };
    Totals totals() const;

    /**
     * Publishes cache.bytes / cache.entries / cache.rejects (and the
     * cache's own hit/miss view under cache.lookup_*) into a metrics
     * registry. The per-job cache.hits/cache.misses counters come
     * from BatchStats, which sees every compile's flags; these are
     * the store-side complements.
     *
     * Adds the *delta* since this cache's previous publish call, so
     * repeated publishes into one cumulative registry (the bench
     * binaries publish after every figure) sum to the current
     * totals instead of multiples of them.
     */
    void publish(MetricsRegistry &registry) const;

  private:
    static constexpr int numShards = 16;

    struct Shard
    {
        mutable std::mutex mutex;
        /** entryId -> on-disk entry size in bytes. */
        std::unordered_map<uint64_t, uint64_t> entries;
    };

    Shard &shardFor(uint64_t id);
    const Shard &shardFor(uint64_t id) const;
    std::string entryPath(const CacheKey &key) const;

    /**
     * The resource model hits re-verify against: kept while requests
     * name the same machine (@p machineImage, already matched against
     * @p machine), rebuilt when the machine changes.
     */
    std::shared_ptr<const ResourceModel>
    modelFor(std::string_view machineImage, const MachineDesc &machine);
    void scanDirectory();
    void dropEntry(const CacheKey &key, const std::string &path);

    std::string directory_;
    CacheMode mode_;
    bool ok_ = false;
    std::string openError_;

    Shard shards_[numShards];

    std::mutex modelMutex_;
    std::shared_ptr<const ResourceModel> model_;

    mutable std::mutex statsMutex_;
    mutable Totals totals_;

    mutable std::mutex publishMutex_;
    mutable Totals published_;
};

} // namespace cams

#endif // CAMS_PIPELINE_CACHE_COMPILE_CACHE_HH
