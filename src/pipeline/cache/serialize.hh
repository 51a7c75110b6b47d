/**
 * @file
 * Binary serialization for the persistent compile cache.
 *
 * A deliberately small, explicit wire format: little-endian
 * fixed-width integers, IEEE doubles by bit pattern, and
 * length-prefixed strings, written through ByteWriter and read back
 * through the bounds-checked ByteReader. Every reader returns false
 * instead of throwing on truncated or malformed input -- a damaged
 * cache entry must degrade to a miss, never to UB or an abort.
 *
 * On top of the primitives sit pack/read pairs for the three domain
 * payloads a cache entry carries: the input Dfg (node ids preserved
 * exactly -- the text format in graph/textio is name-keyed and would
 * not round-trip anonymous or duplicate-named nodes), the
 * MachineDesc, and the full CompileResult. packDfg/packMachine are
 * also the exact-match fingerprints the cache compares verbatim
 * before trusting a hash hit. The *ImageMatches and *ImageHash
 * functions pack the live graph or machine once, into a reused
 * per-thread buffer, and compare or hash those contiguous bytes.
 */

#ifndef CAMS_PIPELINE_CACHE_SERIALIZE_HH
#define CAMS_PIPELINE_CACHE_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/dfg.hh"
#include "machine/machine.hh"
#include "pipeline/driver.hh"

namespace cams
{

/** Appends fixed-width little-endian fields to a byte string. */
class ByteWriter
{
  public:
    void u32(uint32_t value);
    void u64(uint64_t value);
    void i64(int64_t value) { u64(static_cast<uint64_t>(value)); }
    void f64(double value);
    void str(std::string_view value);

    const std::string &data() const { return out_; }
    std::string take() { return std::move(out_); }

    /** Empties the writer, keeping its capacity for reuse. */
    void clear() { out_.clear(); }

  private:
    std::string out_;
};

/** Bounds-checked reader over a serialized byte string. Any failed
 *  read latches ok() false and makes every later read fail too. The
 *  reader does not own the bytes: they must outlive it, and so must
 *  every view() it hands out. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    bool u32(uint32_t &out);
    bool u64(uint64_t &out);
    bool i64(int64_t &out);
    bool f64(double &out);
    bool str(std::string &out);

    /** Reads a length-prefixed string as a view into the bytes. */
    bool view(std::string_view &out);

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && pos_ == bytes_.size(); }
    size_t remaining() const { return bytes_.size() - pos_; }

  private:
    bool take(size_t count, const char *&out);

    std::string_view bytes_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Exact, id-preserving graph image (also the hit fingerprint). */
std::string packDfg(const Dfg &graph);

/** True when @p image is exactly packDfg(@p graph). */
bool dfgImageMatches(std::string_view image, const Dfg &graph);

/** hashBytes(packDfg(@p graph)). */
uint64_t dfgImageHash(const Dfg &graph);

/** Rebuilds a graph from packDfg bytes; false on malformed input. */
bool readDfg(std::string_view bytes, Dfg &out);

/** Exact machine image (also the hit fingerprint). */
std::string packMachine(const MachineDesc &machine);

/** True when @p image is exactly packMachine(@p machine). */
bool machineImageMatches(std::string_view image,
                         const MachineDesc &machine);

/** hashBytes(packMachine(@p machine)). */
uint64_t machineImageHash(const MachineDesc &machine);

/** Rebuilds a machine from packMachine bytes. */
bool readMachine(std::string_view bytes, MachineDesc &out);

/** Serializes a full CompileResult (cache-transient flags excluded). */
void writeCompileResult(ByteWriter &writer, const CompileResult &result);

/** Inverse of writeCompileResult; false on malformed input. */
bool readCompileResult(ByteReader &reader, CompileResult &out);

} // namespace cams

#endif // CAMS_PIPELINE_CACHE_SERIALIZE_HH
