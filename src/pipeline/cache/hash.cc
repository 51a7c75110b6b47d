#include "pipeline/cache/hash.hh"

#include <algorithm>
#include <vector>

namespace cams
{

uint64_t
hashBytes(std::string_view bytes)
{
    ByteHasher h;
    h.add(bytes);
    return h.value();
}

namespace
{

/** Signature of one edge as seen from one endpoint. */
uint64_t
edgeSignature(uint64_t neighbor_color, const DfgEdge &edge,
              uint64_t direction_tag)
{
    uint64_t sig = direction_tag;
    sig = hashCombine(sig, neighbor_color);
    sig = hashCombine(sig, static_cast<uint64_t>(edge.latency));
    sig = hashCombine(sig, static_cast<uint64_t>(edge.distance));
    return sig;
}

/** Order-invariant fold: sort the signatures, then fold in order. */
uint64_t
foldSorted(std::vector<uint64_t> &sigs)
{
    std::sort(sigs.begin(), sigs.end());
    uint64_t acc = 0x5bd1e9955bd1e995ULL;
    for (const uint64_t sig : sigs)
        acc = hashCombine(acc, sig);
    return acc;
}

} // namespace

uint64_t
canonicalLoopHash(const Dfg &graph)
{
    const int n = graph.numNodes();
    std::vector<uint64_t> color(n), next(n);
    for (NodeId v = 0; v < n; ++v) {
        const DfgNode &node = graph.node(v);
        uint64_t c = 0x9ae16a3b2f90404fULL;
        c = hashCombine(c, static_cast<uint64_t>(node.op));
        c = hashCombine(c, static_cast<uint64_t>(node.latency));
        color[v] = c;
    }

    // Three refinement rounds separate everything the suite's loop
    // shapes can distinguish; the exact-match gate covers the rest.
    std::vector<uint64_t> in_sigs, out_sigs;
    for (int round = 0; round < 3; ++round) {
        for (NodeId v = 0; v < n; ++v) {
            in_sigs.clear();
            out_sigs.clear();
            for (const EdgeId id : graph.inEdges(v)) {
                const DfgEdge &edge = graph.edge(id);
                in_sigs.push_back(
                    edgeSignature(color[edge.src], edge, 0x11));
            }
            for (const EdgeId id : graph.outEdges(v)) {
                const DfgEdge &edge = graph.edge(id);
                out_sigs.push_back(
                    edgeSignature(color[edge.dst], edge, 0x22));
            }
            uint64_t c = color[v];
            c = hashCombine(c, foldSorted(in_sigs));
            c = hashCombine(c, foldSorted(out_sigs));
            next[v] = c;
        }
        color.swap(next);
    }

    uint64_t h = 0x8f14e45fceea167aULL;
    h = hashCombine(h, static_cast<uint64_t>(n));
    h = hashCombine(h, static_cast<uint64_t>(graph.numEdges()));
    h = hashCombine(h, foldSorted(color));
    return h;
}

} // namespace cams
