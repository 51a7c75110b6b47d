/**
 * @file
 * The cluster selection cascades of the paper's Figures 9, 10 and 11.
 *
 * A Select(LIST, criteria) step keeps only the clusters satisfying the
 * criteria -- unless that would empty the list, in which case the list
 * is left untouched (Figure 9). Every criterion is therefore a soft
 * preference, applied in a fixed order of importance:
 *
 *  Figure 10 (normal assignment, full heuristic):
 *    1. feasible clusters only (hard: the initial list)
 *    A. clusters this node has not been tried on before (iterative)
 *    2. clusters already hosting another node of this node's SCC
 *    3. clusters whose predicted copy requests fit the reservable room
 *    4. clusters minimizing the required copies this placement adds
 *    5. clusters maximizing free resources
 *
 *  The "simple" selection variant of Section 6 drops steps 2-5.
 *
 *  Figure 11 (after a failure, choosing where to force the node):
 *    1. all clusters (the initial list)
 *    A. clusters this node has not been tried on before (iterative)
 *    2. clusters where the bare operation fits without conflicts
 *    3. clusters minimizing conflicting predecessors/successors
 */

#ifndef CAMS_ASSIGN_SELECTOR_HH
#define CAMS_ASSIGN_SELECTOR_HH

#include <vector>

#include "machine/machine.hh"

namespace cams
{

/** Facts gathered about one tentative cluster assignment. */
struct ClusterChoice
{
    ClusterId cluster = invalidCluster;

    /** Node + required copies fit the MRT (hard requirement). */
    bool feasible = false;

    /** Node was previously assigned here (repetition avoidance). */
    bool previouslyTried = false;

    /** Another node of the same SCC already lives here. */
    bool sccMate = false;

    /** Predicted copy requests <= maximum reservable copies. */
    bool pcrOk = false;

    /** Predicted incoming copies fit the write-port/bus room. */
    bool pcrInOk = false;

    /** Copy operations this placement adds (required copies). */
    int requiredCopies = 0;

    /** Free local slots on the cluster after the placement. */
    int freeResources = 0;

    /** Bare-op fit ignoring copies (Figure 11 line 3). */
    bool bareOpFits = false;

    /** Already-placed neighbors on other clusters (Figure 11 line 4). */
    int conflictingNeighbors = 0;
};

/**
 * Why the cascade picked what it picked: one verdict per input
 * choice, naming the cascade step that eliminated each loser. Filled
 * only when a caller asks for it (decision tracing); the cascade
 * itself pays nothing when the pointer is null.
 *
 * Step names (stable, snake_case): "feasible", "avoid_previous",
 * "scc_affinity", "pcr" (Figure 10's PCR > MRC outgoing-copy filter),
 * "pcr_in" (the incoming-copy extension), "required_copies",
 * "free_resources" for selectBestCluster; "avoid_previous",
 * "bare_op_fits", "conflicting_neighbors" for selectForcedCluster.
 */
struct SelectionExplain
{
    struct Verdict
    {
        ClusterId cluster = invalidCluster;

        /** Survived the whole cascade (lost only to the tie-break). */
        bool survived = false;

        /** First cascade step that removed this cluster, or null. */
        const char *eliminatedBy = nullptr;
    };

    /** One verdict per entry of the input choice vector, in order. */
    std::vector<Verdict> verdicts;

    /** The picked cluster (invalidCluster when nothing is feasible). */
    ClusterId winner = invalidCluster;

    /** Last cascade step that actually narrowed the list, or null. */
    const char *decidingStep = nullptr;
};

/**
 * The survivor list a cascade filters in place. A caller that runs
 * the cascades in a loop owns one and passes it to every call, so no
 * Select step allocates; without one, each call uses a local list.
 */
using CascadeBuffer = std::vector<const ClusterChoice *>;

/**
 * Figure 10 cascade over tentatively evaluated clusters.
 *
 * @param choices one entry per feasible cluster (infeasible entries
 *        are ignored).
 * @param full_heuristic apply steps 2-5; false reproduces the paper's
 *        "Simple" selection.
 * @param avoid_previous apply step A (iterative variants only).
 * @param in_scc the node belongs to a non-trivial SCC (enables 2).
 * @param rotation rotates the final pick among equally ranked
 *        clusters; the assigner advances it after every forced
 *        placement so repeated repair rounds explore different
 *        tie-breaks instead of cycling (§4.3.2's goal).
 * @param explain when non-null, filled with per-cluster verdicts for
 *        the decision trace (adds no cost when null).
 * @param survivors reusable survivor list (see CascadeBuffer).
 * @return the selected cluster, or invalidCluster when nothing is
 *         feasible.
 */
ClusterId selectBestCluster(const std::vector<ClusterChoice> &choices,
                            bool full_heuristic, bool avoid_previous,
                            bool in_scc, int rotation = 0,
                            bool use_scc_affinity = true,
                            bool use_pcr = true,
                            SelectionExplain *explain = nullptr,
                            CascadeBuffer *survivors = nullptr);

/**
 * Figure 11 cascade: where to force a node nothing can host.
 *
 * @param choices one entry per cluster of the machine.
 * @param explain when non-null, filled with per-cluster verdicts.
 * @param survivors reusable survivor list (see CascadeBuffer).
 * @return the selected cluster (never invalidCluster for a non-empty
 *         input).
 */
ClusterId selectForcedCluster(const std::vector<ClusterChoice> &choices,
                              bool avoid_previous,
                              SelectionExplain *explain = nullptr,
                              CascadeBuffer *survivors = nullptr);

} // namespace cams

#endif // CAMS_ASSIGN_SELECTOR_HH
