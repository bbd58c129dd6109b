#include "core/env_config.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "mem/address_map.hh"
#include "sim/logging.hh"

namespace strand
{

namespace
{

/**
 * Parse @p name as an unsigned integer in [minValue, maxValue].
 * Unset or empty means "not configured"; anything else must parse
 * completely or the run dies with a message naming the variable.
 */
std::optional<unsigned>
parseUnsigned(const std::function<const char *(const char *)> &get,
              const char *name, unsigned minValue,
              unsigned maxValue = ~0u)
{
    const char *value = get(name);
    if (!value || !*value)
        return std::nullopt;
    char *end = nullptr;
    long long parsed = std::strtoll(value, &end, 10);
    fatalIf(end == value || *end != '\0',
            "{}='{}' is not an integer", name, value);
    fatalIf(parsed < 0, "{}={} must not be negative", name, parsed);
    fatalIf(parsed < static_cast<long long>(minValue) ||
                parsed > static_cast<long long>(maxValue),
            "{}={} out of range [{}, {}]", name, parsed, minValue,
            maxValue);
    return static_cast<unsigned>(parsed);
}

/**
 * Parse @p name as a 64-bit seed. Base auto-detection accepts plain
 * decimal and 0x-prefixed hex; anything else dies loudly.
 */
std::optional<std::uint64_t>
parseSeed(const std::function<const char *(const char *)> &get,
          const char *name)
{
    const char *value = get(name);
    if (!value || !*value)
        return std::nullopt;
    fatalIf(value[0] == '-', "{}='{}' must not be negative", name,
            value);
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(value, &end, 0);
    fatalIf(end == value || *end != '\0',
            "{}='{}' is not an integer seed", name, value);
    return static_cast<std::uint64_t>(parsed);
}

} // namespace

EnvConfig
parseEnvConfig(const std::function<const char *(const char *)> &get)
{
    EnvConfig config;
    config.ops = parseUnsigned(get, "SW_OPS", 1);
    config.threads = parseUnsigned(get, "SW_THREADS", 1);
    config.crashPoints = parseUnsigned(get, "SW_CRASH_POINTS", 0);
    config.jobs = parseUnsigned(get, "SW_JOBS", 1);
    // Admitting all words of a line is not torn at all; cap at 7.
    config.tornWords =
        parseUnsigned(get, "SW_TORN_WORDS", 0, wordsPerLine - 1);
    config.crashSeed = parseSeed(get, "SW_CRASH_SEED");
    config.fuzzTrials = parseUnsigned(get, "SW_FUZZ_TRIALS", 0);
    config.fuzzSeed = parseSeed(get, "SW_FUZZ_SEED");
    if (auto flag = parseUnsigned(get, "SW_PMOSAN", 0, 1))
        config.pmosan = *flag != 0;
    if (auto flag = parseUnsigned(get, "SW_CRASH_FORK", 0, 1))
        config.crashFork = *flag != 0;
    config.fuzzForkBranch =
        parseUnsigned(get, "SW_FUZZ_FORK_BRANCH", 0);
    // Media-fault intensities are per crash point; the admission
    // ring is 8 deep, so more than 8 of anything cannot land.
    config.mediaPoison = parseUnsigned(get, "SW_MEDIA_POISON", 0, 8);
    config.mediaFlips = parseUnsigned(get, "SW_MEDIA_FLIPS", 0, 8);
    config.mediaDrop = parseUnsigned(get, "SW_MEDIA_DROP", 0, 8);
    config.mediaSeed = parseSeed(get, "SW_MEDIA_SEED");
    config.logLevel = parseUnsigned(get, "SW_LOG", 0, 2);
    if (const char *value = get("SW_OUT_DIR"); value && *value)
        config.outDir = value;
    return config;
}

const std::vector<EnvKnob> &
envKnobs()
{
    static const std::vector<EnvKnob> knobs = {
        {"SW_OPS", ">= 1", "per-bench default",
         "operations per program thread"},
        {"SW_THREADS", ">= 1", "8 (Table I)", "program threads"},
        {"SW_CRASH_POINTS", ">= 0", "bench default",
         "crash points injected per crash cell"},
        {"SW_JOBS", ">= 1", "hardware concurrency",
         "sweep worker threads (1 = serial; output identical)"},
        {"SW_TORN_WORDS", "0..7", "unset (no tearing)",
         "admit only this many words of the final line per crash"},
        {"SW_CRASH_SEED", "u64 (0x hex ok)", "fixed default",
         "seed for random crash-tick selection"},
        {"SW_FUZZ_TRIALS", ">= 0", "per-bench default",
         "fuzz trials per campaign cell (0 disables cells)"},
        {"SW_FUZZ_SEED", "u64 (0x hex ok)", "fixed default",
         "campaign seed for fuzz trials"},
        {"SW_PMOSAN", "0/1", "0 (off)",
         "attach the online PMO-san persist-order checker"},
        {"SW_CRASH_FORK", "0/1", "0 (two-run)",
         "forked-snapshot crash exploration (one warm run)"},
        {"SW_FUZZ_FORK_BRANCH", ">= 0", "0 (off)",
         "extra schedule suffixes forked per fuzz trial"},
        {"SW_MEDIA_POISON", "0..8", "bench default",
         "max poisoned lines injected per crash point"},
        {"SW_MEDIA_FLIPS", "0..8", "bench default",
         "max in-line bit flips injected per crash point"},
        {"SW_MEDIA_DROP", "0..8", "bench default",
         "max trailing ADR admissions dropped per crash point"},
        {"SW_MEDIA_SEED", "u64 (0x hex ok)", "fixed default",
         "seed of the media-fault stream"},
        {"SW_LOG", "0..2", "1 (normal)",
         "console log level (2 adds crash/fuzz fork lines)"},
        {"SW_OUT_DIR", "path", "bench/out",
         "directory for JSON result files"},
    };
    return knobs;
}

std::string
envKnobTable()
{
    std::string out = "SW_* environment knobs:\n";
    std::size_t nameWidth = 0;
    std::size_t rangeWidth = 0;
    for (const EnvKnob &knob : envKnobs()) {
        nameWidth = std::max(nameWidth, std::strlen(knob.name));
        rangeWidth =
            std::max(rangeWidth, std::strlen(knob.constraints));
    }
    for (const EnvKnob &knob : envKnobs()) {
        out += "  ";
        out += knob.name;
        out.append(nameWidth - std::strlen(knob.name) + 2, ' ');
        out += knob.constraints;
        out.append(rangeWidth - std::strlen(knob.constraints) + 2, ' ');
        out += knob.summary;
        out += " [default: ";
        out += knob.fallback;
        out += "]\n";
    }
    return out;
}

const EnvConfig &
envConfig()
{
    static const EnvConfig config = [] {
        EnvConfig parsed = parseEnvConfig(
            [](const char *name) { return std::getenv(name); });
        // The log level is process-global; apply it as soon as the
        // environment is first consulted so fork logging and the
        // like honor SW_LOG without per-caller plumbing.
        if (parsed.logLevel) {
            setLogLevel(*parsed.logLevel == 0   ? LogLevel::Quiet
                        : *parsed.logLevel == 1 ? LogLevel::Normal
                                                : LogLevel::Verbose);
        }
        return parsed;
    }();
    return config;
}

unsigned
envJobs()
{
    if (envConfig().jobs)
        return *envConfig().jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace strand
