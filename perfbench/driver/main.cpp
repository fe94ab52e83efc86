/**
 * @file
 * perfbench_nvwal: run one trial of one benchmark workload and print
 * its report as one JSON object on standard output.
 *
 *   perfbench_nvwal --workload <insert-seq|update-zipf|mw-async>
 *                   --seed <n> [--trace 0|1] [--spans-out <file.csv>]
 *
 * perfbench/run.py builds this binary, repeats trials, checks that
 * sim-time metrics repeat exactly, and aggregates the host-clock ones
 * (perfbench/WORKLOADS.md).
 * Exit status: 0 when the trial ran (its "correct" field says whether
 * every check passed), 2 on bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_nvwal --workload <name> --seed <n> "
                 "[--trace 0|1] [--spans-out <file.csv>]\n");
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

void
printMetrics(const char *key, const std::map<std::string, double> &values)
{
    std::printf("\"%s\": {", key);
    const char *sep = "";
    for (const auto &[name, value] : values) {
        std::printf("%s%s: %.17g", sep, jsonString(name).c_str(),
                    std::isfinite(value) ? value : 0.0);
        sep = ", ";
    }
    std::printf("}");
}

void
printSeries(const char *key,
            const std::map<std::string, std::vector<double>> &series)
{
    std::printf("\"%s\": {", key);
    const char *sep = "";
    for (const auto &[name, values] : series) {
        std::printf("%s%s: [", sep, jsonString(name).c_str());
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (std::isfinite(values[i]))
                std::printf("%s%.17g", i ? ", " : "", values[i]);
            else
                std::printf("%snull", i ? ", " : "");
        }
        std::printf("]");
        sep = ", ";
    }
    std::printf("}");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::TrialOptions options;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            char *end = nullptr;
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != nullptr && *end == '\0' && !value.empty();
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") {
                usage();
                return 2;
            }
            options.traced = value == "1";
        } else if (arg == "--spans-out") {
            options.spansOut = value;
        } else {
            usage();
            return 2;
        }
    }
    if (!have_workload || !have_seed) {
        usage();
        return 2;
    }

    const perfbench::TrialReport r = perfbench::runTrial(options);
    std::printf("{\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
                "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                jsonString(options.workload).c_str(),
                static_cast<unsigned long long>(options.seed),
                options.traced ? "true" : "false",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::printf("\"errors\": [");
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        std::printf("%s%s", i ? ", " : "", jsonString(r.errors[i]).c_str());
    std::printf("], ");
    printMetrics("exact", r.exact);
    std::printf(", ");
    printMetrics("host", r.host);
    std::printf(", ");
    printSeries("chunks", r.chunks);
    std::printf("}\n");
    return 0;
}
