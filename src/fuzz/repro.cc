#include "fuzz/repro.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace strand
{

namespace
{

const char *
logStyleToken(LogStyle style)
{
    return style == LogStyle::Undo ? "undo" : "redo";
}

std::optional<WorkloadKind>
workloadFromName(const std::string &name)
{
    for (WorkloadKind kind : allWorkloads)
        if (name == workloadName(kind))
            return kind;
    return std::nullopt;
}

std::optional<HwDesign>
designFromName(const std::string &name)
{
    for (HwDesign design : allDesigns)
        if (name == hwDesignName(design))
            return design;
    return std::nullopt;
}

std::optional<PersistencyModel>
modelFromName(const std::string &name)
{
    for (PersistencyModel model : allModels)
        if (name == persistencyModelName(model))
            return model;
    return std::nullopt;
}

} // namespace

std::string
serializeRepro(const FuzzRepro &repro)
{
    std::ostringstream out;
    out << "# strand persistency fuzz reproducer\n";
    if (!repro.violation.empty()) {
        std::string oneline = repro.violation;
        for (char &c : oneline)
            if (c == '\n' || c == '\r')
                c = ' ';
        out << "# violation: " << oneline << "\n";
    }
    char buf[64];
    out << "workload " << workloadName(repro.spec.kind) << "\n";
    out << "design " << hwDesignName(repro.spec.design) << "\n";
    out << "model " << persistencyModelName(repro.spec.model) << "\n";
    out << "logstyle " << logStyleToken(repro.spec.logStyle) << "\n";
    out << "threads " << repro.spec.numThreads << "\n";
    out << "ops " << repro.spec.opsPerThread << "\n";
    out << "interlock "
        << (repro.spec.experiment.engine.hopsEpochInterlock ? 1 : 0)
        << "\n";
    // Written only when set so ordinary reproducers keep the stable
    // key set; the planted bug exists purely for harness self-tests.
    if (repro.spec.experiment.engine.plantedEpochBug)
        out << "planted 1\n";
    // HOPS strict admission changes the schedule space, so a trial
    // fuzzed with it must replay with it.
    if (repro.spec.experiment.engine.hopsStrictAdmission)
        out << "strict 1\n";
    // Pinned when the trial ran with an explicit PMO-san setting, so
    // a sanitizer-found violation replays with the sanitizer attached
    // regardless of the replaying environment's SW_PMOSAN.
    if (repro.spec.pmosan)
        out << "pmosan " << (*repro.spec.pmosan ? 1 : 0) << "\n";
    std::snprintf(buf, sizeof(buf), "seed 0x%" PRIx64 "\n",
                  repro.spec.seed);
    out << buf;
    out << "tornwords " << repro.tornWords << "\n";
    // Media keys appear only for media-fuzzed trials, keeping the
    // stable key set for ordinary reproducers. The class maxima are
    // part of the trial identity: they fix how many media queries
    // each injection makes, which the decision log's query numbers
    // depend on.
    if (repro.spec.media.any()) {
        out << "mediapoison " << repro.spec.media.poisonLines << "\n";
        out << "mediaflips " << repro.spec.media.bitFlips << "\n";
        out << "mediadrop " << repro.spec.media.dropAdmissions
            << "\n";
    }
    if (!repro.spec.verifyChecksums)
        out << "checksums 0\n";
    out << "decisions\n";
    out << serializeDecisions(repro.decisions);
    return out.str();
}

std::optional<FuzzRepro>
parseRepro(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return std::nullopt;
    };

    FuzzRepro repro;
    std::istringstream in(text);
    std::string line;
    bool inDecisions = false;
    std::string decisionText;
    unsigned lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        if (inDecisions) {
            decisionText += line;
            decisionText += '\n';
            continue;
        }
        std::istringstream fields(line);
        std::string key, value;
        fields >> key;
        if (key == "decisions") {
            inDecisions = true;
            continue;
        }
        if (!(fields >> value))
            return fail("line " + std::to_string(lineNo) +
                        ": missing value for '" + key + "'");
        if (key == "workload") {
            auto kind = workloadFromName(value);
            if (!kind)
                return fail("unknown workload '" + value + "'");
            repro.spec.kind = *kind;
        } else if (key == "design") {
            auto design = designFromName(value);
            if (!design)
                return fail("unknown design '" + value + "'");
            repro.spec.design = *design;
        } else if (key == "model") {
            auto model = modelFromName(value);
            if (!model)
                return fail("unknown model '" + value + "'");
            repro.spec.model = *model;
        } else if (key == "logstyle") {
            if (value == "undo")
                repro.spec.logStyle = LogStyle::Undo;
            else if (value == "redo")
                repro.spec.logStyle = LogStyle::Redo;
            else
                return fail("unknown logstyle '" + value + "'");
        } else if (key == "threads") {
            repro.spec.numThreads =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "ops") {
            repro.spec.opsPerThread =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "interlock") {
            repro.spec.experiment.engine.hopsEpochInterlock =
                value != "0";
        } else if (key == "planted") {
            repro.spec.experiment.engine.plantedEpochBug =
                value != "0";
        } else if (key == "strict") {
            repro.spec.experiment.engine.hopsStrictAdmission =
                value != "0";
        } else if (key == "pmosan") {
            repro.spec.pmosan = value != "0";
        } else if (key == "seed") {
            repro.spec.seed = std::stoull(value, nullptr, 0);
        } else if (key == "tornwords") {
            repro.tornWords =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "mediapoison") {
            repro.spec.media.poisonLines =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "mediaflips") {
            repro.spec.media.bitFlips =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "mediadrop") {
            repro.spec.media.dropAdmissions =
                static_cast<unsigned>(std::stoul(value));
        } else if (key == "checksums") {
            repro.spec.verifyChecksums = value != "0";
        } else {
            return fail("line " + std::to_string(lineNo) +
                        ": unknown key '" + key + "'");
        }
    }
    if (!inDecisions)
        return fail("missing 'decisions' section");
    auto log = parseDecisions(decisionText, error);
    if (!log)
        return std::nullopt;
    repro.decisions = std::move(*log);
    return repro;
}

std::string
writeRepro(const FuzzRepro &repro, const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return {};

    char seedHex[32];
    std::snprintf(seedHex, sizeof(seedHex), "%" PRIx64,
                  repro.spec.seed);
    std::string name = std::string(workloadName(repro.spec.kind)) +
                       "-" + hwDesignName(repro.spec.design) + "-" +
                       persistencyModelName(repro.spec.model);
    if (repro.spec.experiment.engine.hopsEpochInterlock)
        name += "-interlock";
    if (repro.spec.experiment.engine.hopsStrictAdmission)
        name += "-strict";
    if (repro.spec.logStyle == LogStyle::Redo)
        name += "-redo";
    name += "-t";
    name += seedHex;
    name += ".repro";

    std::string path = dir + "/" + name;
    std::ofstream out(path);
    if (!out)
        return {};
    out << serializeRepro(repro);
    return out ? path : std::string{};
}

FuzzReplayOutcome
replayReproFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open reproducer '{}'", path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    auto repro = parseRepro(buffer.str(), &error);
    fatalIf(!repro, "bad reproducer '{}': {}", path, error);

    FuzzTrialContext ctx = makeTrialContext(repro->spec);
    return replayDecisions(ctx, repro->decisions, repro->tornWords);
}

} // namespace strand
