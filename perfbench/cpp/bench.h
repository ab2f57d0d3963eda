/**
 * @file
 * Shared plumbing of the repository benchmark: options, the metric
 * report, timing and resource probes, and the trace breakdown.
 *
 * Every workload is a function that builds its inputs from the seed,
 * drives the program through its public API, checks the program's
 * outputs, and fills a Report. An untraced run reports the end-to-end
 * metrics; a traced run (--trace 1) reports the per-layer metrics,
 * computed from timed replays of layer calls, from the counters and
 * histograms in obs::MetricsRegistry::global(), and from the span self
 * times of the Chrome trace it writes.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

namespace obs = buckwild::obs;

/// Command-line options shared by every workload.
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory the traced run writes `<workload>.trace.json` into.
    std::string out_dir = ".";
    /// Test hook: "wrong_score" corrupts one served margin before it is
    /// checked, "nonfinite_model" one trained weight. Empty = off.
    std::string inject;
};

/// Metrics and output-check results of one workload run.
class Report
{
  public:
    /// Records metric `name` (must be in the metric table, report.cpp).
    void set(const std::string& name, double value);
    bool has(const std::string& name) const;

    /// An output check: a false `ok` marks the run incorrect.
    void check(bool ok, const std::string& what);

    /// Adds to the ops attempted and the ops that failed.
    void count(std::uint64_t attempted, std::uint64_t failed);

    /// A human-readable line printed before the result.
    void note(const std::string& line);

    bool correct() const { return failures_.empty(); }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, double>& values() const { return values_; }
    const std::vector<std::string>& failures() const { return failures_; }
    const std::vector<std::string>& notes() const { return notes_; }

  private:
    std::map<std::string, double> values_;
    std::vector<std::string> failures_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// One row of the metric table: the name the result carries and its unit.
struct MetricSpec
{
    const char* name;
    const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by every traced run (0 where the
/// workload does not reach the layer).
const std::vector<MetricSpec>& per_layer_metrics();

// ------------------------------------------------------------ CPU set

/**
 * Confines the process to one vCPU, the last one it may run on; threads
 * started later inherit it. On the VM the benchmark was defined on, the
 * host grants a multi-threaded process between about one and four cores
 * from one minute to the next, and every figure of a workload spread over
 * several vCPUs follows that (cluster_dense_tcp: 17k-67k examples/s on
 * identical runs). On one vCPU the same runs repeat within about 7%.
 * Returns the vCPU chosen.
 */
int pin_to_one_cpu();

/// Lets the calling thread, and the threads it starts, run on every vCPU
/// the process started with, until destroyed.
class AllCpus
{
  public:
    AllCpus();
    ~AllCpus();
    AllCpus(const AllCpus&) = delete;
    AllCpus& operator=(const AllCpus&) = delete;

  private:
    cpu_set_t saved_;
};

// ---------------------------------------------------------------- probes

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

/// Keeps a replay's results live so the compiler cannot drop the calls.
void do_not_optimize(double value);

/// Peak resident set of the process in MB.
double peak_rss_mb();

double median(std::vector<double> xs);
/// p in [0, 100]; linear interpolation (util::percentile_of).
double percentile(std::vector<double> xs, double p);

/// Calls `fn` repeatedly for at least `seconds` (after one warm call) and
/// returns the median seconds per call over batches of calls.
template <typename Fn>
double
time_per_call(double seconds, Fn&& fn)
{
    fn(); // warm caches and lazy kernel resolution
    std::vector<double> per_call;
    const double stop = now_s() + seconds;
    std::size_t batch = 1;
    while (now_s() < stop || per_call.size() < 5) {
        const double t0 = now_s();
        for (std::size_t i = 0; i < batch; ++i) fn();
        const double dt = now_s() - t0;
        per_call.push_back(dt / static_cast<double>(batch));
        if (dt < 1e-3) batch *= 2;
    }
    return median(per_call);
}

/// Summary of one histogram of the global registry.
obs::MetricsSnapshot::HistoSummary histo(const std::string& name);
/// A counter / gauge of the global registry (0 when absent).
std::uint64_t counter(const std::string& name);
double gauge(const std::string& name);

// ----------------------------------------------------------------- trace

/// Count and time of one span name in a trace.
struct SpanStat
{
    std::uint64_t count = 0;
    double total_s = 0.0;
    /// Duration minus the part covered by child spans on the same thread.
    double self_s = 0.0;
};

/**
 * Turns the program's tracer on for the traced phase of a run. finish()
 * turns it off, writes `<out_dir>/<workload>.trace.json`, reports
 * obs.trace_dropped, prints the per-span table and returns it.
 */
class TraceSession
{
  public:
    TraceSession();
    std::map<std::string, SpanStat> finish(const Options& options,
                                           Report& report);
};

// ------------------------------------------------------------- workloads

void run_hogwild_dense(const Options& options, Report& report);
void run_cluster_dense_tcp(const Options& options, Report& report);
void run_cluster_sparse(const Options& options, Report& report);
void run_serve_gate(const Options& options, Report& report);

/// Logistic loss log(1 + e^(-label * margin)) of one scored example.
double logistic_loss(double margin, float label);

/// Mean logistic loss of `weights` over dense rows `x` (row-major) with
/// labels `y`, accumulated in double — the benchmark's own recomputation
/// of a model's quality, independent of the program's evaluation code.
double logistic_loss_dense(const std::vector<float>& weights,
                           const std::vector<float>& x,
                           const std::vector<float>& y);

/// The training-loss checks every training workload applies: the
/// recomputed loss is finite, below ln 2, and within `rel_tolerance` of
/// the program's own, relative to the larger of the two. Returns that
/// relative difference.
double check_train_loss(Report& report, double recomputed,
                        double program_loss, double rel_tolerance);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
