/**
 * @file
 * perfbench — one workload of the repository benchmark per invocation.
 *
 *     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--out-dir <dir>] [--inject wrong_score|nonfinite_model]
 *
 * Prints human-readable lines, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}:
 * the end-to-end metrics untraced, the per-layer metrics traced. Exits 1
 * when an output check failed, 2 on a usage error.
 */
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "bench.h"
#include "obs/export.h"

namespace {

using perfbench::Options;
using perfbench::Report;

struct Workload
{
    const char* name;
    void (*run)(const Options&, Report&);
};

const Workload kWorkloads[] = {
    {"hogwild_dense", perfbench::run_hogwild_dense},
    {"cluster_dense_tcp", perfbench::run_cluster_dense_tcp},
    {"cluster_sparse", perfbench::run_cluster_sparse},
    {"serve_gate", perfbench::run_serve_gate},
};

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "hogwild_dense|cluster_dense_tcp|cluster_sparse|serve_gate "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--inject wrong_score|nonfinite_model]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") options.workload = value;
            else if (flag == "--seed") options.seed = std::stoull(value);
            else if (flag == "--seconds") options.seconds = std::stod(value);
            else if (flag == "--trace") options.trace = value == "1";
            else if (flag == "--out-dir") options.out_dir = value;
            else if (flag == "--inject") options.inject = value;
            else return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");
    if (!options.inject.empty() && options.inject != "wrong_score" &&
        options.inject != "nonfinite_model")
        return usage("unknown --inject");
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads)
        if (options.workload == w.name) workload = &w;
    if (workload == nullptr) return usage("unknown --workload");

    Report report;
    try {
        const int cpu = perfbench::pin_to_one_cpu();
        report.note("pinned to vCPU " + std::to_string(cpu));
        workload->run(options, report);
    } catch (const std::exception& e) {
        report.check(false, std::string("workload threw: ") + e.what());
    }

    const auto& specs = options.trace ? perfbench::per_layer_metrics()
                                      : perfbench::end_to_end_metrics();
    if (!options.trace && !report.has("peak_rss_mb"))
        report.set("peak_rss_mb", perfbench::peak_rss_mb());
    for (const perfbench::MetricSpec& spec : specs) {
        if (report.has(spec.name)) continue;
        // A layer the workload does not reach did no work there; an
        // end-to-end metric is never optional.
        if (options.trace) report.set(spec.name, 0.0);
        else report.check(false, std::string("metric not measured: ") +
                                     spec.name);
    }

    for (const std::string& line : report.notes())
        std::printf("%s\n", line.c_str());
    for (const perfbench::MetricSpec& spec : specs)
        std::printf("%-34s %16.6g %s\n", spec.name,
                    report.values().at(spec.name), spec.unit);
    for (const std::string& failure : report.failures()) {
        std::printf("CHECK FAILED: %s\n", failure.c_str());
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     failure.c_str());
    }

    std::ostringstream json;
    buckwild::obs::JsonWriter writer(json);
    writer.begin_object();
    writer.key("correct").value(report.correct());
    writer.key("attempted").value(
        static_cast<std::uint64_t>(report.attempted()));
    writer.key("failed").value(static_cast<std::uint64_t>(report.failed()));
    writer.key("metrics").begin_object();
    for (const perfbench::MetricSpec& spec : specs) {
        writer.key(spec.name).begin_object();
        writer.key("value").value(report.values().at(spec.name));
        writer.key("unit").value(spec.unit);
        writer.end_object();
    }
    writer.end_object();
    writer.end_object();
    std::string line = json.str();
    std::erase(line, '\n');
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
