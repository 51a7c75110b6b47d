/**
 * @file
 * The persistent, content-addressed compile cache.
 *
 * Repeat traffic dominates the workloads this system serves: every
 * batch driver, bench binary and CI job recompiles the same
 * 1327-loop suite on the same machines with the same options. A
 * CompileCache makes that reuse explicit. Compiles are keyed by a
 * CacheKey -- the canonical (renumbering-invariant) loop hash, the
 * machine image hash and the result-relevant pipeline options -- and
 * full CompileResults are stored in a versioned binary format, one
 * file per key, under a cache directory shared across processes.
 *
 * Safety model ("trust but verify"):
 *
 *  - a hash hit is never served on faith: the entry stores the exact
 *    byte images of the input graph and machine, and both must match
 *    the request verbatim (so a canonical-hash collision or an
 *    isomorphic-but-renumbered request degrades to a miss);
 *  - a served schedule is re-checked by the independent verifier
 *    before it leaves the cache; a corrupted or stale entry is
 *    dropped (and unlinked in rw mode), again degrading to a miss;
 *  - entries are written to a temp file and atomically renamed, so
 *    concurrent writers and crashed processes can never publish a
 *    torn entry; readers treat any truncation, bad magic, version
 *    mismatch or checksum failure as a miss.
 *
 * Warm-start hints. Misses additionally consult a hint store keyed
 * by (loop, machine, scheduler, clustered) only -- options excluded
 * -- mapping to the II a previous compile achieved and the assigner
 * restart rotation that won. A near-miss recompile (same loop,
 * changed options) probes the hinted II first instead of walking up
 * from MII; the driver verifies that probe unconditionally and falls
 * back to the cold path when it fails, so a stale hint costs one
 * probe, never correctness. Hint-assisted results are *not* written
 * back as full entries: a full entry always records the cold
 * (from-MII) outcome, which is what keeps warm reruns byte-identical
 * to cold ones.
 *
 * Thread safety: the in-memory index is sharded (one mutex per
 * shard) so hit serving scales under the pipeline/batch thread pool;
 * entry files are immutable once published and are read without any
 * lock. One CompileCache may be shared by every job of a batch.
 */

#ifndef CAMS_PIPELINE_CACHE_COMPILE_CACHE_HH
#define CAMS_PIPELINE_CACHE_COMPILE_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "pipeline/cache/hash.hh"
#include "pipeline/driver.hh"
#include "support/metrics.hh"

namespace cams
{

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
    uint64_t loopHash = 0;    ///< canonicalLoopHash of the input
    uint64_t machineHash = 0; ///< hash of the machine byte image
    uint64_t optionsHash = 0; ///< result-relevant options + schema
    uint64_t hintSalt = 0;    ///< scheduler + clustered path only

    /** Identity of the full-result entry. */
    uint64_t entryId() const;

    /** Identity of the warm-start hint (options excluded). */
    uint64_t hintId() const;

    /** Entry file name: 16 hex digits of entryId() + ".cce". */
    std::string fileName() const;
};

/**
 * Derives the content address of one compile. Everything that can
 * change the CompileResult participates: the canonical loop
 * structure, the machine image, the scheduler choice, the assignment
 * policy knobs, verify/fallback/iiSlack/exhaustiveFallbackNodes, the
 * time budget, the clustered-vs-unified path and the tenant
 * namespace salt (CompileOptions::cacheSalt, which also salts the
 * hint identity). Deliberately
 * excluded: trace/metrics configuration (observability never changes
 * results) and the fault injector (fault-injected compiles bypass the
 * cache entirely).
 */
CacheKey makeCacheKey(const Dfg &graph, const MachineDesc &machine,
                      const CompileOptions &options, bool clustered);

/** Outcome of one cache-directory scrub pass. */
struct ScrubReport
{
    long entriesScanned = 0;   ///< .cce files examined
    long entriesOk = 0;        ///< entries that validated fully
    long quarantined = 0;      ///< files moved to corrupt/ (incl. hint log)
    long tmpRemoved = 0;       ///< leftover .tmp-* writer files deleted
    long hintLinesKept = 0;    ///< valid hints.log lines preserved
    long hintLinesDropped = 0; ///< torn/unparseable hint lines removed
    bool hintLogRepaired = false; ///< hints.log was rewritten cleaned

    /** Non-empty when the scrub itself could not run. */
    std::string error;
};

/**
 * Validates every .cce entry in @p directory -- magic, format
 * version, stored-hash/file-name consistency, payload checksum, and
 * a full decode of the embedded graph/machine/result images -- and
 * quarantines anything torn, truncated or bit-rotted into
 * <directory>/corrupt/ (moved, never deleted, so forensics survive).
 * Leftover .tmp-* files from writers killed mid-store are removed.
 * The hints.log tail is repaired: parseable lines are kept, a torn
 * or corrupt remainder is dropped, and the original log is
 * quarantined whenever anything had to go. Designed for startup and
 * offline use (camsd runs it on every tenant directory before
 * serving; cams_scrub runs it standalone); racing it against live
 * lookups in another process is safe -- an entry quarantined
 * mid-lookup degrades to a miss -- but wasteful.
 */
ScrubReport scrubCacheDir(const std::string &directory);

/** What a prior compile of the same loop/machine/scheduler achieved. */
struct WarmStartHint
{
    int ii = 0;       ///< achieved initiation interval
    int mii = 0;      ///< the MII that search started from
    int rotation = 0; ///< assigner restart rotation that succeeded
};

/** Persistent content-addressed store of CompileResults + hints. */
class CompileCache
{
  public:
    /**
     * Opens (rw: creates) the cache directory and loads the entry
     * index and hint store. A directory that cannot be opened
     * disables the cache (enabled() false) instead of failing the
     * run; the error is kept for the caller to report.
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

    /** Looks up a warm-start hint. @return true when one exists. */
    bool hint(const CacheKey &key, WarmStartHint &out) const;

    /** Records a warm-start hint (ReadWrite only; last write wins). */
    void storeHint(const CacheKey &key, const WarmStartHint &hint);

    /**
     * Runs scrubCacheDir() on this cache's directory, then rebuilds
     * the in-memory entry index and hint store from what survived
     * (ReadWrite only). Not meant to run concurrently with lookups
     * through this object: run it before serving.
     */
    ScrubReport scrub();

    /** Cache-wide accounting (monotonic over this object's life). */
    struct Totals
    {
        long hits = 0;          ///< full-result lookups served
        long misses = 0;        ///< lookups that found nothing usable
        long rejects = 0;       ///< entries dropped by validation
        long hintHits = 0;      ///< hint lookups that found one
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
     * registry. The per-job cache.hits/cache.misses/hint.used/
     * hint.stale counters come from BatchStats, which sees every
     * compile's flags; these are the store-side complements.
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
    void scanDirectory();
    void loadHints();
    void dropEntry(const CacheKey &key, const std::string &path);

    std::string directory_;
    CacheMode mode_;
    bool ok_ = false;
    std::string openError_;

    Shard shards_[numShards];

    mutable std::mutex hintMutex_;
    std::unordered_map<uint64_t, WarmStartHint> hints_;

    mutable std::mutex statsMutex_;
    mutable Totals totals_;

    mutable std::mutex publishMutex_;
    mutable Totals published_;
    mutable long publishedHints_ = 0;
};

} // namespace cams

#endif // CAMS_PIPELINE_CACHE_COMPILE_CACHE_HH
