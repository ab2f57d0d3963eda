/**
 * @file
 * Shared observability CLI plumbing for the buckwild_* tools.
 *
 * Every tool but buckwild_tracemerge appends the same six entries to its
 * flag table (tools/flags.h): --trace-out, --metrics-out,
 * --timeseries-out, --obs-port, --obs-period-ms and --conformance-band,
 * and shares one ObsSession RAII object that wires the live tier together:
 * tracer enablement, the Sampler (with the tool's GNPS input gauges as
 * rate gauges), the perf-counter publisher and DMGC conformance watchdog
 * as sampler listeners, and the HTTP exporter — then tears it all down
 * and writes the trace/metrics files in finish().
 *
 * The live tier (sampler + listeners + exporter) activates only when
 * --obs-port or --timeseries-out was given; the batch flags
 * (--trace-out/--metrics-out) keep working on their own exactly as
 * before.
 */
#ifndef BUCKWILD_TOOLS_OBS_CLI_H
#define BUCKWILD_TOOLS_OBS_CLI_H

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "dmgc/signature.h"
#include "flags.h"
#include "lowp/round.h"
#include "obs/obs.h"
#include "simd/registry.h"

namespace buckwild::tools {

/**
 * Publishes the kernel registry's per-process resolution as labeled
 * gauges so /metrics shows which variant each op actually runs on this
 * host: `kern.kernel_impl{op="simd.dot_d8m8",impl="avx512"} = 1` for
 * every registered op, plus `kern.best_impl{impl="..."} = 1` for the
 * resolver's overall pick. Values are presence markers (always 1); the
 * label carries the information.
 */
inline void
publish_kernel_impl_gauges(obs::MetricsRegistry& registry)
{
    simd::register_dense_kernels();
    lowp::register_lowp_kernels();
    const auto& lib = simd::KernelLibrary::instance();
    for (const std::string& op : lib.ops()) {
        const auto resolved = lib.resolve_auto(op);
        registry
            .gauge(obs::labeled(
                "kern.kernel_impl",
                {{"op", op}, {"impl", simd::to_string(resolved.impl)}}))
            .set(1.0);
    }
    registry
        .gauge(obs::labeled(
            "kern.best_impl",
            {{"impl", simd::to_string(simd::best_impl())}}))
        .set(1.0);
}

struct ObsCliOptions
{
    std::string trace_path;
    std::string metrics_path;
    std::string timeseries_path;
    /// --obs-port value; -1 = no HTTP endpoint, 0 = ephemeral port.
    int port = -1;
    std::size_t period_ms = 500;
    double band_lo = 0.02;
    double band_hi = 50.0;

    /// True when the live tier (sampler thread + /metrics) should run.
    bool live() const { return port >= 0 || !timeseries_path.empty(); }
};

/// The six shared observability flags, bound to `opt`. Every tool but
/// buckwild_tracemerge appends them under its observability heading.
inline void
add_obs_flags(flags::Table& t, ObsCliOptions& opt)
{
    t.flag({"--trace-out"}, "PATH", "write a Chrome trace_event JSON of the "
           "run (open in chrome://tracing / Perfetto)",
           flags::text(opt.trace_path));
    t.flag({"--metrics-out"}, "PATH", "write the metrics registry as flat JSON",
           flags::text(opt.metrics_path));
    t.flag({"--timeseries-out"}, "PATH", "append one JSONL line per sampler "
           "tick (live counters, gauges, derived rates)",
           flags::text(opt.timeseries_path));
    t.flag({"--obs-port"}, "N", "serve Prometheus GET /metrics and GET "
           "/healthz on port N (0 = any free port, printed at startup)",
           flags::port(opt.port));
    t.flag({"--obs-period-ms"}, "N", "sampler period in ms (default 500)",
           flags::count(opt.period_ms, 1));
    t.flag({"--conformance-band"}, "L,H",
           "flag ticks whose measured/predicted GNPS ratio leaves [L, H]",
           [&opt](const std::string& token) {
               const std::size_t comma = token.find(',');
               const double lo = flags::parse_real(token.substr(0, comma));
               const double hi = comma == std::string::npos
                   ? 0.0
                   : flags::parse_real(token.substr(comma + 1));
               if (!(lo > 0.0) || !(hi > lo))
                   throw flags::Error("want 0 < LO < HI, got " + token);
               opt.band_lo = lo;
               opt.band_hi = hi;
           });
}

/**
 * RAII wiring of the live observability tier around one tool run.
 *
 * Construct it (after parsing flags) with the workload's DMGC identity —
 * the signature the conformance watchdog holds the run's roofline to,
 * plus the names of the cumulative numbers/seconds gauges that workload
 * publishes. When the options request the live tier this starts, in
 * order: hardware perf counters, the conformance watchdog, the sampler
 * thread (perf publisher and watchdog as per-tick listeners), and the
 * HTTP exporter. finish() (or the destructor) tears the tier down in
 * reverse and then writes the batch trace/metrics files.
 */
class ObsSession
{
  public:
    struct Workload
    {
        dmgc::Signature signature;
        std::size_t threads = 1;
        /// Model dimension n for p(n); 0 = no roofline prediction.
        std::size_t model_size = 0;
        std::string numbers_gauge = "serve.numbers";
        std::string seconds_gauge = "serve.busy_seconds";
        /// Process label stamped into the trace (process_name metadata);
        /// this is what buckwild_tracemerge shows per pid. Empty = keep
        /// the exporter's traditional single-process output.
        std::string process;
    };

    ObsSession(const ObsCliOptions& opt, const Workload& workload)
        : opt_(opt)
    {
        if (!opt_.trace_path.empty())
            obs::Tracer::global().set_enabled(true);
        if (!workload.process.empty())
            obs::Tracer::global().set_process(workload.process);
        // Resolved-kernel gauges go into every export (--metrics-out and
        // live scrapes alike), not just live sessions.
        auto& registry = obs::MetricsRegistry::global();
        publish_kernel_impl_gauges(registry);
        if (!opt_.live()) return;

        perf_ = std::make_unique<obs::PerfCounters>();
        if (!perf_->available())
            std::printf("obs: hardware counters unavailable (%s)\n",
                        perf_->unavailable_reason().c_str());

        obs::ConformanceConfig conf;
        conf.signature = workload.signature;
        conf.threads = workload.threads;
        conf.model_size = workload.model_size;
        conf.numbers_gauge = workload.numbers_gauge;
        conf.seconds_gauge = workload.seconds_gauge;
        conf.band_lo = opt_.band_lo;
        conf.band_hi = opt_.band_hi;
        watchdog_ =
            std::make_unique<obs::ConformanceWatchdog>(registry, conf);

        obs::SamplerConfig sampler_cfg;
        sampler_cfg.period = std::chrono::milliseconds(opt_.period_ms);
        sampler_cfg.jsonl_path = opt_.timeseries_path;
        sampler_cfg.rate_gauges = {workload.numbers_gauge,
                                   workload.seconds_gauge};
        sampler_ = std::make_unique<obs::Sampler>(registry, sampler_cfg);
        sampler_->add_listener(
            [this](const obs::Sample&) {
                perf_->publish(obs::MetricsRegistry::global());
            });
        sampler_->add_listener(
            [this](const obs::Sample& s) { watchdog_->observe(s); });
        sampler_->start();

        if (opt_.port >= 0) {
            obs::HttpExporterConfig http_cfg;
            http_cfg.port = static_cast<std::uint16_t>(opt_.port);
            exporter_ = std::make_unique<obs::HttpExporter>(http_cfg);
            if (exporter_->start())
                std::printf("obs: serving /metrics and /healthz on port "
                            "%u (period %zu ms)\n",
                            exporter_->port(), opt_.period_ms);
            else
                exporter_.reset();
        }
    }

    ~ObsSession() { finish(); }

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    bool live() const { return sampler_ != nullptr; }

    /// The HTTP port actually bound, or -1 when no endpoint is up.
    int port() const { return exporter_ ? exporter_->port() : -1; }

    /// Stops the live tier and writes the batch export files. Idempotent
    /// (also run by the destructor).
    void
    finish()
    {
        if (finished_) return;
        finished_ = true;
        if (exporter_) exporter_->stop();
        if (sampler_) {
            sampler_->stop();
            if (!opt_.timeseries_path.empty())
                std::printf("timeseries: wrote %s (%llu samples)\n",
                            opt_.timeseries_path.c_str(),
                            static_cast<unsigned long long>(
                                sampler_->samples_taken()));
        }
        if (!opt_.trace_path.empty() &&
            obs::export_trace_file(opt_.trace_path))
            std::printf("trace: wrote %s (chrome://tracing)\n",
                        opt_.trace_path.c_str());
        if (!opt_.metrics_path.empty() &&
            obs::export_metrics_file(opt_.metrics_path,
                                     obs::MetricsRegistry::global()))
            std::printf("metrics: wrote %s\n", opt_.metrics_path.c_str());
    }

  private:
    ObsCliOptions opt_;
    bool finished_ = false;
    std::unique_ptr<obs::PerfCounters> perf_;
    std::unique_ptr<obs::ConformanceWatchdog> watchdog_;
    std::unique_ptr<obs::Sampler> sampler_;
    std::unique_ptr<obs::HttpExporter> exporter_;
};

} // namespace buckwild::tools

#endif // BUCKWILD_TOOLS_OBS_CLI_H
