#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace perfbench {

namespace {

// The contract between the benchmark and BENCHMARK.json: the names and
// units below are the ones the result line carries (test_perfbench.py
// checks the two lists agree).
const std::vector<MetricSpec> kEndToEnd = {
    {"ops_per_s", "1/s"},      {"cpu_us_per_op", "us"},
    {"model_loss", "nats"},    {"bytes_per_op", "B"},
    {"latency_p50_us", "us"},  {"latency_p90_us", "us"},
    {"ok_frac", "ratio"},      {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"simd.dense_dot_gnps", "Gnum/s"},
    {"simd.dense_axpy_gnps", "Gnum/s"},
    {"simd.sparse_dot_gnps", "Gnum/s"},
    {"core.kernel_share", "ratio"},
    {"core.thread_speedup", "ratio"},
    {"dataset.quantize_s", "s"},
    {"ps.worker.round_p50_us", "us"},
    {"ps.worker.round_p99_us", "us"},
    {"ps.worker.round_count", "count"},
    {"ps.worker.compute_share", "ratio"},
    {"ps.speedup_vs_single", "ratio"},
    {"ps.round.compute_share", "ratio"},
    {"ps.round.codec_share", "ratio"},
    {"ps.round.apply_share", "ratio"},
    {"ps.round.ssp_wait_share", "ratio"},
    {"ps.round.rpc_wait_share", "ratio"},
    {"ps.codec.encode_ns_per_number", "ns"},
    {"ps.codec.decode_ns_per_number", "ns"},
    {"ps.codec.bits_per_number", "bit"},
    {"ps.sparse.support_frac", "ratio"},
    {"ps.pull_bytes_per_round", "B"},
    {"ps.push_bytes_per_round", "B"},
    {"ps.rpc.retries_per_round", "count"},
    {"ps.shard.dup_per_push", "ratio"},
    {"ps.ssp.bounce_per_push", "ratio"},
    {"ps.ssp.wait_us_per_round", "us"},
    {"ps.staleness_mean", "rounds"},
    {"ps.shard.apply_p50_us", "us"},
    {"ps.shard.apply_busy_frac", "ratio"},
    {"ps.publishes", "count"},
    {"ps.wire.serialize_ns_per_byte", "ns"},
    {"ps.wire.deserialize_ns_per_byte", "ns"},
    {"ps.hop.push_wire_p50_us", "us"},
    {"net.bytes_per_round", "B"},
    {"net.frames_per_round", "count"},
    {"serve.score_ns", "ns"},
    {"serve.publish_ms", "ms"},
    {"gate.hop.wire_in_p50_us", "us"},
    {"gate.hop.admission_p50_us", "us"},
    {"gate.hop.queue_p50_us", "us"},
    {"gate.hop.queue_p99_us", "us"},
    {"gate.hop.score_p50_us", "us"},
    {"gate.hop.reply_p50_us", "us"},
    {"gate.wire.deserialize_ns", "ns"},
    {"gate.admit_self_us", "us"},
    {"gate.shed_frac", "ratio"},
    {"gate.deadline_missed_frac", "ratio"},
    {"gate.client.send_lag_p99_us", "us"},
    {"gate.client.latency_p99_us", "us"},
    {"obs.trace_overhead", "ratio"},
    {"obs.trace_dropped", "count"},
};

/// One complete span of a flushed trace.
struct SpanEvent
{
    const char* name;
    std::uint32_t tid;
    std::int64_t ts_ns;
    std::int64_t dur_ns;
};

/// Per span name: count, total and self time.
std::map<std::string, SpanStat>
span_self_times(const std::vector<SpanEvent>& events);

const MetricSpec*
find_spec(const std::string& name)
{
    for (const auto* table : {&kEndToEnd, &kPerLayer})
        for (const MetricSpec& spec : *table)
            if (name == spec.name) return &spec;
    return nullptr;
}

} // namespace

const std::vector<MetricSpec>&
end_to_end_metrics()
{
    return kEndToEnd;
}

const std::vector<MetricSpec>&
per_layer_metrics()
{
    return kPerLayer;
}

// ---------------------------------------------------------------- Report

void
Report::set(const std::string& name, double value)
{
    if (find_spec(name) == nullptr)
        throw std::logic_error("metric not in the table: " + name);
    values_[name] = value;
}

bool
Report::has(const std::string& name) const
{
    return values_.count(name) != 0;
}

void
Report::check(bool ok, const std::string& what)
{
    if (!ok) failures_.push_back(what);
}

void
Report::count(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::note(const std::string& line)
{
    notes_.push_back(line);
}

// ------------------------------------------------------------ CPU set

namespace {

cpu_set_t g_started_with; ///< the affinity the process started with
volatile double g_replay_sink = 0.0; ///< see do_not_optimize()

} // namespace

int
pin_to_one_cpu()
{
    if (sched_getaffinity(0, sizeof g_started_with, &g_started_with) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &g_started_with)) last = cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0)
        throw std::runtime_error("sched_setaffinity failed");
    return last;
}

AllCpus::AllCpus()
{
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0 ||
        sched_setaffinity(0, sizeof g_started_with, &g_started_with) != 0)
        throw std::runtime_error("could not widen the CPU set");
}

AllCpus::~AllCpus()
{
    sched_setaffinity(0, sizeof saved_, &saved_);
}

// ---------------------------------------------------------------- probes

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
process_cpu_s()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

void
do_not_optimize(double value)
{
    g_replay_sink = value;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> xs)
{
    return buckwild::percentile_of(std::move(xs), 50.0);
}

double
percentile(std::vector<double> xs, double p)
{
    return buckwild::percentile_of(std::move(xs), p);
}

obs::MetricsSnapshot::HistoSummary
histo(const std::string& name)
{
    return obs::MetricsRegistry::global().histogram(name).summary();
}

std::uint64_t
counter(const std::string& name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

double
gauge(const std::string& name)
{
    return obs::MetricsRegistry::global().gauge(name).value();
}

double
logistic_loss(double margin, float label)
{
    // log(1 + e^m) without overflow for large margins.
    const double m = -static_cast<double>(label) * margin;
    return m > 0.0 ? m + std::log1p(std::exp(-m)) : std::log1p(std::exp(m));
}

double
logistic_loss_dense(const std::vector<float>& weights,
                    const std::vector<float>& x, const std::vector<float>& y)
{
    const std::size_t dim = weights.size();
    double total = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        double z = 0.0;
        const float* row = x.data() + i * dim;
        for (std::size_t k = 0; k < dim; ++k)
            z += static_cast<double>(weights[k]) * row[k];
        total += logistic_loss(z, y[i]);
    }
    return total / static_cast<double>(y.size());
}

double
check_train_loss(Report& report, double recomputed, double program_loss,
                 double rel_tolerance)
{
    std::ostringstream what;
    what << "train loss " << recomputed << " (program: " << program_loss
         << ")";
    report.check(std::isfinite(recomputed),
                 what.str() + " is not finite");
    report.check(recomputed < std::log(2.0),
                 what.str() + " is not below ln 2");
    const double rel = std::abs(recomputed - program_loss) /
                       std::max(std::abs(recomputed), std::abs(program_loss));
    std::ostringstream gap;
    gap << " differs from the program's by a relative " << rel
        << ", more than " << rel_tolerance;
    report.check(rel <= rel_tolerance, what.str() + gap.str());
    return rel;
}

// ----------------------------------------------------------------- trace

namespace {

std::map<std::string, SpanStat>
span_self_times(const std::vector<SpanEvent>& events)
{
    // Per thread, in start order (longer first on ties, so a parent
    // precedes a child that starts with it). A span's parent is the
    // innermost open span on its thread that wholly contains it; where the
    // program records one call twice under one name (shard.apply as a
    // traced and a plain span) the inner copy takes the self time. The
    // benchmark's GateClient.request spans, pipelined requests recorded
    // from send to reply on a reader thread, overlap without nesting and
    // are neither parent nor child.
    const auto pipelined = [](const SpanEvent* e) {
        return std::strcmp(e->name, "GateClient.request") == 0;
    };
    std::map<std::uint32_t, std::vector<const SpanEvent*>> by_tid;
    for (const SpanEvent& e : events) by_tid[e.tid].push_back(&e);
    std::map<std::string, SpanStat> stats;
    for (auto& [tid, list] : by_tid) {
        std::sort(list.begin(), list.end(),
                  [](const SpanEvent* a, const SpanEvent* b) {
                      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns
                                                  : a->dur_ns > b->dur_ns;
                  });
        struct Open
        {
            const SpanEvent* event;
            std::int64_t child_ns;
        };
        std::vector<Open> open;
        const auto close = [&](const Open& o) {
            SpanStat& s = stats[o.event->name];
            s.count += 1;
            s.total_s += static_cast<double>(o.event->dur_ns) * 1e-9;
            s.self_s +=
                static_cast<double>(o.event->dur_ns - o.child_ns) * 1e-9;
        };
        const auto end_of = [](const SpanEvent* e) {
            return e->ts_ns + e->dur_ns;
        };
        for (const SpanEvent* e : list) {
            std::erase_if(open, [&](const Open& o) {
                if (end_of(o.event) > e->ts_ns) return false;
                close(o);
                return true;
            });
            for (auto it = open.rbegin(); it != open.rend() && !pipelined(e);
                 ++it)
                if (!pipelined(it->event) && end_of(e) <= end_of(it->event)) {
                    it->child_ns += e->dur_ns;
                    break;
                }
            open.push_back({e, 0});
        }
        for (const Open& o : open) close(o);
    }
    return stats;
}

} // namespace

TraceSession::TraceSession()
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.flush(); // start from an empty trace
    // Rings are per thread and preallocated: large enough for the
    // per-request spans of a serve_gate phase, small enough to keep the
    // process well under a gigabyte with a dozen threads.
    tracer.set_ring_capacity(1u << 18);
    tracer.set_enabled(true);
}

std::map<std::string, SpanStat>
TraceSession::finish(const Options& options, Report& report)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.set_enabled(false);
    const std::uint64_t dropped = tracer.dropped();
    const std::vector<obs::TraceEvent> events = tracer.flush();
    report.set("obs.trace_dropped", static_cast<double>(dropped));
    if (dropped > 0)
        report.note("trace dropped " + std::to_string(dropped) +
                    " events: the breakdown is incomplete");

    const std::string path =
        options.out_dir + "/" + options.workload + ".trace.json";
    std::ofstream out(path);
    if (out) {
        obs::write_chrome_trace(out, events);
        report.note("trace written to " + path);
    } else {
        report.note("could not write " + path);
    }

    std::vector<SpanEvent> spans;
    for (const obs::TraceEvent& e : events)
        if (e.type == obs::TraceEvent::Type::kComplete)
            spans.push_back({e.name, e.tid, e.ts_ns, e.dur_ns});
    std::map<std::string, SpanStat> stats = span_self_times(spans);
    for (const auto& [name, s] : stats) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "span %-24s count %9llu  total %10.3f ms  self %10.3f "
                      "ms",
                      name.c_str(), static_cast<unsigned long long>(s.count),
                      s.total_s * 1e3, s.self_s * 1e3);
        report.note(line);
    }
    return stats;
}

} // namespace perfbench
