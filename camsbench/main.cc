/**
 * @file
 * cams_bench: runs one workload of the CAMS benchmark and prints its
 * metrics. Usage:
 *
 *   cams_bench --workload NAME --seed N --seconds S --trace 0|1
 *              --work-dir DIR
 *
 * Human-readable notes go first; the last line of standard output is
 * the JSON result. Exit status: 0 when every oracle agreed, 1 on an
 * oracle mismatch (the result is still printed), 2 on a usage or
 * run error (nothing is printed).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workload/suite.hh"
#include "workloads.hh"

namespace
{

int
usage(const char *why)
{
    std::cerr << "cams_bench: " << why << "\n"
              << "usage: cams_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    camsbench::RunConfig config;
    config.workDir = ".";
    config.seed = cams::defaultSuiteSeed;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        bool ok = true;
        if (arg == "--workload") {
            config.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            config.seed = std::strtoull(value.c_str(), &end, 10);
            ok = !value.empty() && *end == '\0';
        } else if (arg == "--seconds") {
            config.seconds = static_cast<int>(
                std::strtol(value.c_str(), &end, 10));
            ok = !value.empty() && *end == '\0';
        } else if (arg == "--trace") {
            config.trace = value == "1";
            ok = value == "0" || value == "1";
        } else if (arg == "--work-dir") {
            config.workDir = value;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
        if (!ok)
            return usage(("bad value for " + arg).c_str());
    }
    if (!haveWorkload)
        return usage("--workload is required");
    bool known = false;
    for (const std::string &name : camsbench::workloadNames())
        known = known || name == config.workload;
    if (!known)
        return usage(("unknown workload " + config.workload).c_str());
    if (config.seconds < 1)
        return usage("--seconds must be at least 1");

    try {
        std::filesystem::create_directories(config.workDir);
        const camsbench::RunReport report =
            camsbench::runWorkload(config);
        const camsbench::Outcomes &o = report.outcomes;
        for (const std::string &line : report.log)
            std::cout << "# " << line << "\n";
        for (const std::string &why : o.reasons())
            std::cout << "# failure: " << why << "\n";
        std::cout << "# fail_frac: " << o.failFrac() << " ratio ("
                  << o.failed() << " failed / " << o.attempted()
                  << " attempted, " << o.mismatches()
                  << " oracle mismatches)\n";
        for (const camsbench::Metric &m : report.metrics)
            std::cout << "# " << m.name << ": " << m.value << " "
                      << m.unit << "\n";
        std::cout << camsbench::resultJson(o, report.metrics)
                  << std::endl;
        return o.correct() ? 0 : 1;
    } catch (const std::exception &err) {
        std::cerr << "cams_bench: " << err.what() << "\n";
        return 2;
    }
}
