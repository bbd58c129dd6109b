#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "core/env_config.hh"

namespace strand
{

std::string
SweepCell::workload() const
{
    if (!workloadLabel.empty())
        return workloadLabel;
    if (recorded)
        return workloadName(recorded->kind);
    return "?";
}

std::string
SweepCell::key() const
{
    std::string result = workload();
    result += '/';
    result += hwDesignName(design);
    result += '/';
    result += persistencyModelName(model);
    if (!variant.empty()) {
        result += '/';
        result += variant;
    }
    return result;
}

SweepCell &
SweepSpec::addTiming(std::shared_ptr<const RecordedWorkload> rec,
                     HwDesign design, PersistencyModel model,
                     std::string baseline)
{
    SweepCell cell;
    cell.kind = CellKind::Timing;
    cell.recorded = std::move(rec);
    cell.design = design;
    cell.model = model;
    cell.baseline = std::move(baseline);
    return add(std::move(cell));
}

SweepCell &
SweepSpec::addCrash(std::shared_ptr<const RecordedWorkload> rec,
                    HwDesign design, PersistencyModel model,
                    unsigned crashPoints)
{
    SweepCell cell;
    cell.kind = CellKind::Crash;
    cell.recorded = std::move(rec);
    cell.design = design;
    cell.model = model;
    cell.crashPoints = crashPoints;
    return add(std::move(cell));
}

SweepCell &
SweepSpec::addFuzz(const FuzzCellConfig &campaign)
{
    SweepCell cell;
    cell.kind = CellKind::Fuzz;
    cell.design = campaign.base.design;
    cell.model = campaign.base.model;
    cell.config.logStyle = campaign.base.logStyle;
    cell.config.engine = campaign.base.experiment.engine;
    cell.workloadLabel = workloadName(campaign.base.kind);
    cell.fuzz = campaign;
    return add(std::move(cell));
}

const CellResult *
SweepResult::find(const std::string &key) const
{
    for (const CellResult &cell : cells)
        if (cell.key == key)
            return &cell;
    return nullptr;
}

bool
SweepResult::allOk() const
{
    for (const CellResult &cell : cells)
        if (!cell.ok)
            return false;
    return true;
}

std::vector<std::string>
SweepResult::failedKeys() const
{
    std::vector<std::string> keys;
    for (const CellResult &cell : cells)
        if (!cell.ok)
            keys.push_back(cell.key);
    return keys;
}

namespace
{

/** FNV-1a over the cell key, for remixing per-cell fuzz seeds. */
std::uint64_t
hashKey(const std::string &key)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : key) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Execute one cell; throws propagate to the caller's handler. */
void
executeCell(const SweepCell &cell, CellResult &result)
{
    if (cell.kind == CellKind::Fuzz) {
        // Remix the campaign seed with the cell coordinates so cells
        // sharing one campaign seed still explore independent
        // schedules — deterministically, whatever SW_JOBS is.
        FuzzCellConfig campaign = cell.fuzz;
        campaign.seed = mixSeed(campaign.seed, hashKey(result.key));
        result.fuzz = runFuzzCell(campaign);
        result.ok = true;
        return;
    }
    panicIf(!cell.recorded, "sweep cell {} has no recorded workload",
            result.key);
    if (cell.kind == CellKind::Timing) {
        result.metrics =
            runExperiment(*cell.recorded, cell.design, cell.model,
                          cell.config, cell.validate);
    } else {
        CrashHarnessConfig crashCfg;
        crashCfg.pointBudget = cell.crashPoints;
        crashCfg.seed = benchCrashSeed(crashCfg.seed);
        crashCfg.logStyle = cell.config.logStyle;
        crashCfg.tornWords = cell.tornWords;
        crashCfg.media = cell.media;
        crashCfg.experiment = cell.config;
        crashCfg.pmosan = cell.config.pmosan;
        crashCfg.fork = cell.crashFork;
        crashCfg.verifyMidrunFork = cell.crashVerifyMidrunFork;
        result.crash = runCrashCell(*cell.recorded, cell.design,
                                    cell.model, crashCfg);
    }
    result.ok = true;
}

} // namespace

SweepResult
runSweep(const SweepSpec &spec)
{
    SweepResult result;
    result.name = spec.name;
    unsigned jobs = spec.jobs ? spec.jobs : envJobs();
    if (!spec.cells.empty())
        jobs = std::min<unsigned>(
            jobs, static_cast<unsigned>(spec.cells.size()));
    result.jobs = std::max(jobs, 1u);

    // Pre-fill coordinates in spec order so results are positionally
    // stable however the workers interleave, and so even a panicking
    // cell reports its coordinates.
    result.cells.resize(spec.cells.size());
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const SweepCell &cell = spec.cells[i];
        CellResult &out = result.cells[i];
        out.kind = cell.kind;
        out.workload = cell.workload();
        out.design = cell.design;
        out.model = cell.model;
        out.logStyle = cell.config.logStyle;
        out.variant = cell.variant;
        out.key = cell.key();
        out.baseline = cell.baseline;
        out.tornWords = cell.tornWords;
        out.media = cell.media;
    }

    // Cells that share a recording run back to back, groups in the
    // order of their first cell and cells in spec order within a
    // group. A recording's machine seeds are dropped once its last
    // cell is done, so a sweep holds the seeds of the recordings in
    // progress only, not of every recording it has run.
    std::unordered_map<const RecordedWorkload *, std::size_t> firstCell;
    std::unordered_map<const RecordedWorkload *, std::size_t> cellsLeft;
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        if (const RecordedWorkload *rec = spec.cells[i].recorded.get()) {
            firstCell.try_emplace(rec, i);
            ++cellsLeft[rec];
        }
    }
    auto group = [&](std::size_t i) {
        const RecordedWorkload *rec = spec.cells[i].recorded.get();
        return rec ? firstCell.at(rec) : i;
    };
    std::vector<std::size_t> order(spec.cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::ranges::stable_sort(order, {}, group);
    std::mutex cellsLeftMutex;

    auto runOne = [&](std::size_t i) {
        CellResult &out = result.cells[i];
        setLogCellLabel(out.key);
        auto started = std::chrono::steady_clock::now();
        try {
            executeCell(spec.cells[i], out);
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        }
        out.host.wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
        switch (out.kind) {
          case CellKind::Timing:
            out.host.events = out.metrics.hostEvents;
            out.host.simOps = out.metrics.simOps;
            break;
          case CellKind::Crash:
            out.host.events = out.crash.hostEvents;
            out.host.simOps = out.crash.simOps;
            break;
          case CellKind::Fuzz:
            out.host.events = out.fuzz.hostEvents;
            out.host.simOps = out.fuzz.simOps;
            break;
        }
        setLogCellLabel("");
        if (const RecordedWorkload *rec = spec.cells[i].recorded.get()) {
            bool last = false;
            {
                std::lock_guard lock(cellsLeftMutex);
                last = --cellsLeft.at(rec) == 0;
            }
            if (last)
                rec->seeds.clear();
        }
    };

    if (result.jobs == 1) {
        // Every cell on the calling thread, with no pool machinery at
        // all.
        for (std::size_t i : order)
            runOne(i);
    } else {
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (std::size_t n = next.fetch_add(1); n < order.size();
                 n = next.fetch_add(1)) {
                runOne(order[n]);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(result.jobs);
        for (unsigned t = 0; t < result.jobs; ++t)
            pool.emplace_back(worker);
        for (std::thread &thread : pool)
            thread.join();
    }

    // Baselines are ordinary cells, so speedups resolve after the
    // pool drains — no scheduling dependencies between cells.
    for (CellResult &cell : result.cells) {
        if (cell.baseline.empty() || !cell.ok)
            continue;
        const CellResult *base = result.find(cell.baseline);
        if (!base || !base->ok) {
            cell.ok = false;
            cell.error = "baseline cell " + cell.baseline +
                         (base ? " failed" : " not found");
            continue;
        }
        cell.speedup = cell.metrics.speedupOver(base->metrics);
    }
    return result;
}

std::shared_ptr<const RecordedWorkload>
recordShared(WorkloadKind kind, const WorkloadParams &params)
{
    return std::make_shared<const RecordedWorkload>(
        recordWorkload(kind, params));
}

} // namespace strand
