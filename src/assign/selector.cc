#include "assign/selector.hh"

#include <algorithm>

#include "support/logging.hh"

namespace cams
{

namespace
{

/**
 * The surviving-cluster list plus the optional decision record. Every
 * Select step runs through here so the Figure 9 soft-keep rule and
 * the explain bookkeeping exist once. The list lives in a buffer the
 * caller owns and is filtered in place, so a step allocates nothing.
 */
class Cascade
{
  public:
    Cascade(const std::vector<ClusterChoice> &choices,
            SelectionExplain *explain, CascadeBuffer &list)
        : base_(choices.data()), explain_(explain), list_(list)
    {
        list_.clear();
        if (explain_) {
            explain_->verdicts.assign(choices.size(), {});
            for (size_t i = 0; i < choices.size(); ++i)
                explain_->verdicts[i].cluster = choices[i].cluster;
            explain_->winner = invalidCluster;
            explain_->decidingStep = nullptr;
        }
    }

    /** Admits a choice into the initial list. */
    void
    admit(const ClusterChoice &choice)
    {
        list_.push_back(&choice);
    }

    /** Records a choice excluded from the initial list. */
    void
    exclude(const ClusterChoice &choice, const char *step)
    {
        if (explain_)
            verdictOf(choice).eliminatedBy = step;
    }

    bool empty() const { return list_.empty(); }

    size_t size() const { return list_.size(); }

    const ClusterChoice &at(size_t i) const { return *list_[i]; }

    /** Figure 9: keep the old list when the filter would empty it. */
    template <typename Keep>
    void
    select(const char *step, Keep keep)
    {
        const auto kept = std::count_if(
            list_.begin(), list_.end(),
            [&](const ClusterChoice *choice) { return keep(*choice); });
        if (kept == 0 || static_cast<size_t>(kept) == list_.size())
            return; // vacuous or would empty the list: soft-keep
        if (explain_) {
            for (const ClusterChoice *choice : list_) {
                if (!keep(*choice) &&
                    !verdictOf(*choice).eliminatedBy) {
                    verdictOf(*choice).eliminatedBy = step;
                }
            }
            explain_->decidingStep = step;
        }
        // remove_if keeps the survivors in their original order.
        list_.erase(std::remove_if(list_.begin(), list_.end(),
                                   [&](const ClusterChoice *choice) {
                                       return !keep(*choice);
                                   }),
                    list_.end());
    }

    /** Keeps the minimizers of a metric (soft: a min always exists). */
    template <typename Metric>
    void
    selectMin(const char *step, Metric metric)
    {
        if (list_.empty())
            return;
        int best = metric(*list_.front());
        for (const ClusterChoice *choice : list_)
            best = std::min(best, metric(*choice));
        select(step, [&](const ClusterChoice &choice) {
            return metric(choice) == best;
        });
    }

    /** Stamps the final pick and the tie-break survivors. */
    ClusterId
    finish(const ClusterChoice &picked)
    {
        if (explain_) {
            for (const ClusterChoice *choice : list_)
                verdictOf(*choice).survived = true;
            explain_->winner = picked.cluster;
        }
        return picked.cluster;
    }

  private:
    SelectionExplain::Verdict &
    verdictOf(const ClusterChoice &choice)
    {
        return explain_->verdicts[static_cast<size_t>(&choice - base_)];
    }

    const ClusterChoice *base_;
    SelectionExplain *explain_;
    CascadeBuffer &list_;
};

} // namespace

ClusterId
selectBestCluster(const std::vector<ClusterChoice> &choices,
                  bool full_heuristic, bool avoid_previous, bool in_scc,
                  int rotation, bool use_scc_affinity, bool use_pcr,
                  SelectionExplain *explain, CascadeBuffer *survivors)
{
    CascadeBuffer local;
    Cascade cascade(choices, explain, survivors ? *survivors : local);
    for (const ClusterChoice &choice : choices) {
        if (choice.feasible)
            cascade.admit(choice);
        else
            cascade.exclude(choice, "feasible");
    }
    if (cascade.empty())
        return invalidCluster;

    if (avoid_previous) {
        cascade.select("avoid_previous",
                       [](const ClusterChoice &choice) {
                           return !choice.previouslyTried;
                       });
    }

    if (full_heuristic) {
        if (in_scc && use_scc_affinity) {
            cascade.select("scc_affinity",
                           [](const ClusterChoice &choice) {
                               return choice.sccMate;
                           });
        }
        if (use_pcr) {
            cascade.select("pcr", [](const ClusterChoice &choice) {
                return choice.pcrOk;
            });
            cascade.select("pcr_in", [](const ClusterChoice &choice) {
                return choice.pcrInOk;
            });
        }
        cascade.selectMin("required_copies",
                          [](const ClusterChoice &choice) {
                              return choice.requiredCopies;
                          });
        cascade.selectMin("free_resources",
                          [](const ClusterChoice &choice) {
                              return -choice.freeResources;
                          });
    }

    return cascade.finish(
        cascade.at(static_cast<size_t>(rotation) % cascade.size()));
}

ClusterId
selectForcedCluster(const std::vector<ClusterChoice> &choices,
                    bool avoid_previous, SelectionExplain *explain,
                    CascadeBuffer *survivors)
{
    cams_assert(!choices.empty(), "forced selection over no clusters");
    CascadeBuffer local;
    Cascade cascade(choices, explain, survivors ? *survivors : local);
    for (const ClusterChoice &choice : choices)
        cascade.admit(choice);

    if (avoid_previous) {
        cascade.select("avoid_previous",
                       [](const ClusterChoice &choice) {
                           return !choice.previouslyTried;
                       });
    }
    cascade.select("bare_op_fits", [](const ClusterChoice &choice) {
        return choice.bareOpFits;
    });
    cascade.selectMin("conflicting_neighbors",
                      [](const ClusterChoice &choice) {
                          return choice.conflictingNeighbors;
                      });
    return cascade.finish(cascade.at(0));
}

} // namespace cams
