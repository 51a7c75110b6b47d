/**
 * @file
 * Content hashing for the persistent compile cache.
 *
 * Small mixing primitives (splitmix64 finalizer, ordered fold,
 * FNV-1a over bytes) shared by every key component. hashBytes() of
 * the exact packDfg image is the loop part of a cache entry's
 * identity, so two loops share an entry only when their images are
 * equal byte for byte (or collide in 64 bits, which the entry's
 * byte-exact gate turns into a miss).
 */

#ifndef CAMS_PIPELINE_CACHE_HASH_HH
#define CAMS_PIPELINE_CACHE_HASH_HH

#include <cstdint>
#include <string_view>

namespace cams
{

/** splitmix64 finalizer: a cheap, well-mixed 64-bit permutation. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Order-sensitive fold of one value into a running hash. */
inline uint64_t
hashCombine(uint64_t seed, uint64_t value)
{
    return mix64(seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL +
                         (seed << 6) + (seed >> 2)));
}

/**
 * hashBytes() fed in pieces: adding a byte string in any split gives
 * the value hashBytes() gives for the whole, so an image can be
 * hashed as it is produced instead of being built first.
 */
class ByteHasher
{
  public:
    void
    add(std::string_view bytes)
    {
        for (const char c : bytes) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ULL;
        }
    }

    uint64_t value() const { return mix64(h_); }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** FNV-1a over a byte string, finished through mix64. */
inline uint64_t
hashBytes(std::string_view bytes)
{
    ByteHasher h;
    h.add(bytes);
    return h.value();
}

} // namespace cams

#endif // CAMS_PIPELINE_CACHE_HASH_HH
