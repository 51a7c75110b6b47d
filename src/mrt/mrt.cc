#include "mrt/mrt.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace cams
{

ResourceModel::ResourceModel(const MachineDesc &machine)
    : machine_(machine)
{
    machine_.validate();

    auto addPool = [&](int capacity, const std::string &name) -> PoolId {
        cams_assert(capacity > 0, "pool '", name, "' with capacity 0");
        capacity_.push_back(capacity);
        names_.push_back(name);
        return static_cast<PoolId>(capacity_.size() - 1);
    };

    for (ClusterId c = 0; c < machine_.numClusters(); ++c) {
        const ClusterDesc &cluster = machine_.cluster(c);
        std::array<PoolId, numFuClasses> pools;
        pools.fill(invalidPool);
        if (cluster.usesGpPool()) {
            const PoolId gp =
                addPool(cluster.gpUnits, "gp@" + std::to_string(c));
            pools.fill(gp);
        } else {
            for (int cls = 0; cls < numFuClasses; ++cls) {
                if (cluster.fsUnits[cls] > 0) {
                    pools[cls] = addPool(
                        cluster.fsUnits[cls],
                        fuClassName(static_cast<FuClass>(cls)) + "@" +
                            std::to_string(c));
                }
            }
        }
        fuPools_.push_back(pools);

        readPools_.push_back(
            cluster.readPorts > 0
                ? addPool(cluster.readPorts, "rd@" + std::to_string(c))
                : invalidPool);
        writePools_.push_back(
            cluster.writePorts > 0
                ? addPool(cluster.writePorts, "wr@" + std::to_string(c))
                : invalidPool);
    }

    if (machine_.interconnect == InterconnectKind::Bus &&
        machine_.numBuses > 0) {
        busPool_ = addPool(machine_.numBuses, "bus");
    }
    for (size_t i = 0; i < machine_.links.size(); ++i) {
        linkPools_.push_back(
            addPool(1, "link" + std::to_string(machine_.links[i].a) + "-" +
                           std::to_string(machine_.links[i].b)));
    }
}

PoolId
ResourceModel::fuPool(ClusterId cluster, FuClass cls) const
{
    cams_assert(cluster >= 0 && cluster < machine_.numClusters(),
                "bad cluster ", cluster);
    if (cls == FuClass::None)
        return invalidPool;
    return fuPools_[cluster][static_cast<int>(cls)];
}

PoolId
ResourceModel::readPool(ClusterId cluster) const
{
    cams_assert(cluster >= 0 && cluster < machine_.numClusters(),
                "bad cluster ", cluster);
    return readPools_[cluster];
}

PoolId
ResourceModel::writePool(ClusterId cluster) const
{
    cams_assert(cluster >= 0 && cluster < machine_.numClusters(),
                "bad cluster ", cluster);
    return writePools_[cluster];
}

PoolId
ResourceModel::linkPool(int link) const
{
    cams_assert(link >= 0 && link < static_cast<int>(linkPools_.size()),
                "bad link ", link);
    return linkPools_[link];
}

std::string
ResourceModel::poolName(PoolId pool) const
{
    cams_assert(pool >= 0 && pool < numPools(), "bad pool ", pool);
    return names_[pool];
}

std::vector<PoolId>
ResourceModel::opRequest(ClusterId cluster, Opcode op) const
{
    cams_assert(op != Opcode::Copy,
                "copies are requested via copyRequest()");
    const PoolId pool = fuPool(cluster, opcodeFuClass(op));
    if (pool == invalidPool) {
        cams_fatal("cluster ", cluster, " of machine '", machine_.name,
                   "' cannot execute ", opcodeName(op));
    }
    return {pool};
}

std::vector<PoolId>
ResourceModel::copyRequest(ClusterId src,
                           const std::vector<ClusterId> &dsts) const
{
    std::vector<PoolId> pools;
    pools.reserve(2 + dsts.size());
    copyRequestInto(src, dsts, pools);
    return pools;
}

void
ResourceModel::copyRequestInto(ClusterId src,
                               std::span<const ClusterId> dsts,
                               std::vector<PoolId> &pools) const
{
    cams_assert(!dsts.empty(), "copy with no destination");
    pools.clear();

    const PoolId read = readPool(src);
    if (read == invalidPool) {
        cams_fatal("cluster ", src, " of machine '", machine_.name,
                   "' has no read ports; cannot source a copy");
    }
    pools.push_back(read);

    if (machine_.interconnect == InterconnectKind::Bus) {
        cams_assert(busPool_ != invalidPool,
                    "copy on a machine without buses");
        pools.push_back(busPool_);
    } else {
        cams_assert(dsts.size() == 1,
                    "point-to-point copies have one destination");
        const int link = machine_.linkBetween(src, dsts[0]);
        cams_assert(link >= 0, "no link between clusters ", src, " and ",
                    dsts[0]);
        pools.push_back(linkPool(link));
    }

    for (ClusterId dst : dsts) {
        cams_assert(dst != src, "copy to the source cluster");
        const PoolId write = writePool(dst);
        if (write == invalidPool) {
            cams_fatal("cluster ", dst, " of machine '", machine_.name,
                       "' has no write ports; cannot receive a copy");
        }
        pools.push_back(write);
    }
}

namespace
{

/** Requests are tiny (one FU pool, or ports + bus/link), so a
 *  quadratic duplicate test beats anything with allocation. */
bool
hasDuplicatePool(const std::vector<PoolId> &pools)
{
    for (size_t i = 1; i < pools.size(); ++i) {
        for (size_t j = 0; j < i; ++j) {
            if (pools[j] == pools[i])
                return true;
        }
    }
    return false;
}

} // namespace

Mrt::Mrt(const ResourceModel &model, int ii)
{
    reset(model, ii);
}

void
Mrt::reset(const ResourceModel &model, int ii)
{
    model_ = &model;
    ii_ = 0; // force the rebuild even at an unchanged length
    reset(ii);
}

void
Mrt::reset(int ii)
{
    cams_assert(model_ != nullptr, "reset of an unbound MRT");
    cams_assert(ii >= 1, "MRT with ii ", ii);
    ii_ = ii;
    words_ = (ii + 63) / 64;
    use_.assign(static_cast<size_t>(model_->numPools()) * ii, 0);
    usedTotal_.assign(model_->numPools(), 0);
    // Every row starts free; bits past row ii-1 stay zero so word
    // scans never propose a row outside the table.
    freeRows_.assign(static_cast<size_t>(model_->numPools()) * words_,
                     ~uint64_t{0});
    const int tail = ii % 64;
    if (tail != 0) {
        const uint64_t last = (uint64_t{1} << tail) - 1;
        for (PoolId pool = 0; pool < model_->numPools(); ++pool)
            freeRows_[static_cast<size_t>(pool) * words_ + words_ - 1] =
                last;
    }
    mask_.assign(words_, 0);
}

bool
Mrt::fitsExactly(const std::vector<PoolId> &pools, int row) const
{
    for (size_t i = 0; i < pools.size(); ++i) {
        const PoolId pool = pools[i];
        // Count multiplicity of this pool within the request.
        int need = 0;
        for (size_t j = 0; j <= i; ++j) {
            if (pools[j] == pool)
                ++need;
        }
        if (use_[static_cast<size_t>(pool) * ii_ + row] + need >
            model_->capacity(pool)) {
            return false;
        }
    }
    return true;
}

bool
Mrt::canReserveAt(const std::vector<PoolId> &pools, int row) const
{
    cams_assert(row >= 0 && row < ii_, "bad row ", row);
    const size_t word = static_cast<size_t>(row) >> 6;
    const uint64_t bit = uint64_t{1} << (row & 63);
    for (PoolId pool : pools) {
        ++wordScans_;
        if (!(freeRows_[static_cast<size_t>(pool) * words_ + word] &
              bit)) {
            return false;
        }
    }
    // The bits prove one free slot per distinct pool; a request
    // naming the same pool twice still needs the exact count.
    return !hasDuplicatePool(pools) || fitsExactly(pools, row);
}

void
Mrt::combineMasks(const std::vector<PoolId> &pools) const
{
    mask_.assign(words_, ~uint64_t{0});
    for (PoolId pool : pools) {
        const size_t base = static_cast<size_t>(pool) * words_;
        for (int w = 0; w < words_; ++w)
            mask_[w] &= freeRows_[base + w];
    }
    wordScans_ += static_cast<long>(pools.size()) * words_;
}

int
Mrt::findRow(const std::vector<PoolId> &pools) const
{
    // A single-pool request (the common case: one FU slot) needs no
    // combining -- the pool's own free-row mask is the answer.
    const uint64_t *mask;
    if (pools.size() == 1) {
        mask = freeRows_.data() +
               static_cast<size_t>(pools[0]) * words_;
    } else {
        combineMasks(pools);
        mask = mask_.data();
    }
    const bool verify = hasDuplicatePool(pools);
    for (int w = 0; w < words_; ++w) {
        ++wordScans_;
        uint64_t word = mask[w];
        while (word != 0) {
            const int row = w * 64 + std::countr_zero(word);
            if (!verify || fitsExactly(pools, row))
                return row;
            word &= word - 1;
        }
    }
    return -1;
}

int
Mrt::scanRows(const std::vector<PoolId> &pools, int startRow, int count,
              int step) const
{
    cams_assert(startRow >= 0 && startRow < ii_, "bad row ", startRow);
    cams_assert(step == 1 || step == -1, "bad scan step ", step);
    const uint64_t *mask;
    if (pools.size() == 1) {
        mask = freeRows_.data() +
               static_cast<size_t>(pools[0]) * words_;
    } else {
        combineMasks(pools);
        mask = mask_.data();
    }
    const bool verify = hasDuplicatePool(pools);
    int row = startRow;
    int skipped = 0;
    while (skipped < count) {
        const int w = row >> 6;
        ++wordScans_;
        if (mask[w] == 0) {
            // Whole word full: hop to its edge in the scan direction
            // (never past row ii-1, whose successor starts word 0).
            const int hop = std::min(
                count - skipped,
                step > 0 ? std::min(64 - (row & 63), ii_ - row)
                         : (row & 63) + 1);
            skipped += hop;
            row = (row + step * hop + ii_ * hop) % ii_;
            continue;
        }
        if ((mask[w] >> (row & 63)) & 1) {
            if (!verify || fitsExactly(pools, row))
                return skipped;
        }
        ++skipped;
        row = (row + step + ii_) % ii_;
    }
    return -1;
}

void
Mrt::claim(const std::vector<PoolId> &pools, int row)
{
    cams_assert(row >= 0 && row < ii_, "bad row ", row);
    cams_assert(fitsExactly(pools, row), "reserveAt on a full row ",
                row);
    for (PoolId pool : pools) {
        const int used = ++use_[static_cast<size_t>(pool) * ii_ + row];
        ++usedTotal_[pool];
        if (used == model_->capacity(pool)) {
            freeRows_[static_cast<size_t>(pool) * words_ +
                      (row >> 6)] &= ~(uint64_t{1} << (row & 63));
        }
    }
}

void
Mrt::reserveAtInto(const std::vector<PoolId> &pools, int row,
                   Reservation &out)
{
    const int wrapped = ((row % ii_) + ii_) % ii_;
    claim(pools, wrapped);
    out.row = wrapped;
    // Copy-assign so a reused Reservation keeps its capacity.
    out.pools = pools;
}

Reservation
Mrt::reserveAt(const std::vector<PoolId> &pools, int row)
{
    Reservation reservation;
    reserveAtInto(pools, row, reservation);
    return reservation;
}

std::optional<Reservation>
Mrt::reserve(const std::vector<PoolId> &pools)
{
    const int row = findRow(pools);
    if (row < 0)
        return std::nullopt;
    return reserveAt(pools, row);
}

void
Mrt::release(const Reservation &reservation)
{
    cams_assert(reservation.valid(), "releasing an invalid reservation");
    release(reservation.pools, reservation.row);
}

void
Mrt::release(const std::vector<PoolId> &pools, int row)
{
    for (PoolId pool : pools) {
        int &slot = use_[static_cast<size_t>(pool) * ii_ + row];
        cams_assert(slot > 0, "double release of pool ",
                    model_->poolName(pool));
        --slot;
        --usedTotal_[pool];
        freeRows_[static_cast<size_t>(pool) * words_ + (row >> 6)] |=
            uint64_t{1} << (row & 63);
    }
}

std::string
Mrt::dump() const
{
    std::string out = "MRT II=" + std::to_string(ii_) + "\n";
    for (PoolId pool = 0; pool < model_->numPools(); ++pool) {
        std::string line = "  " + model_->poolName(pool);
        while (line.size() < 14)
            line.push_back(' ');
        for (int row = 0; row < ii_; ++row) {
            line += detail::concat(
                " ", use_[static_cast<size_t>(pool) * ii_ + row], "/",
                model_->capacity(pool));
        }
        out += line + "\n";
    }
    return out;
}

int
Mrt::usedTotal(PoolId pool) const
{
    cams_assert(pool >= 0 && pool < model_->numPools(), "bad pool ",
                pool);
    return usedTotal_[pool];
}

} // namespace cams
