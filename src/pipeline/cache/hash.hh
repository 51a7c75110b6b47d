/**
 * @file
 * Content hashing for the persistent compile cache and the serve wire.
 *
 * Small mixing primitives (splitmix64 finalizer, ordered fold) and
 * hashBytes(), the one hash of a byte string: the loop and machine
 * image hashes, the cache entry checksum, the serve frame checksum and
 * the server's dedupe key and tenant salt all use it. hashBytes() of
 * the exact packDfg image is the loop part of a cache entry's
 * identity, so two loops share an entry only when their images are
 * equal byte for byte (or collide in 64 bits, which the entry's
 * byte-exact gate turns into a miss).
 *
 * hashBytes() folds the input's little-endian 8-byte words (the last
 * one zero-padded), then its length, into a state h by
 * h = (rotl(h, 5) ^ w) * 0x9e3779b97f4a7c15, and finishes with
 * mix64(). For a fixed word w each step is a bijection of h (a
 * rotation, an xor, and a product with an odd constant modulo 2^64
 * are each invertible), and so is mix64(). So two inputs of one length
 * that differ in one word, a single flipped bit say, always hash
 * differently: after that word their states differ, and the same
 * later steps keep them apart.
 */

#ifndef CAMS_PIPELINE_CACHE_HASH_HH
#define CAMS_PIPELINE_CACHE_HASH_HH

#include <bit>
#include <cstdint>
#include <cstring>
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

/** Word-at-a-time hash of a byte string (see the file comment). */
inline uint64_t
hashBytes(std::string_view bytes)
{
    const auto step = [](uint64_t h, uint64_t word) {
        return (std::rotl(h, 5) ^ word) * 0x9e3779b97f4a7c15ULL;
    };
    const auto load = [](const char *p) {
        uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        if constexpr (std::endian::native == std::endian::big)
            word = __builtin_bswap64(word);
        return word;
    };

    uint64_t h = 0xcbf29ce484222325ULL;
    const char *p = bytes.data();
    size_t left = bytes.size();
    for (; left >= 8; p += 8, left -= 8)
        h = step(h, load(p));
    if (left > 0) {
        char tail[8] = {};
        std::memcpy(tail, p, left);
        h = step(h, load(tail));
    }
    return mix64(step(h, bytes.size()));
}

} // namespace cams

#endif // CAMS_PIPELINE_CACHE_HASH_HH
