/**
 * @file
 * The two cluster workloads: 2 shards and 2 workers with the program's
 * defaults (error feedback on, tau = 8, batch 16, RPC timeouts and
 * backoffs untouched).
 *
 * cluster_dense_tcp assembles the cluster from run_shard_node,
 * run_worker_node and ControlClient over loopback SocketTransport, as
 * threads of this process: Cs8 on 4096 dense coordinates. It is the only
 * workload through ps/wire, net framing and the socket fabric, and its
 * workers run the scalar dense round loop. Each round pulls the full f32
 * model (16 KiB) against a ~4 KiB push.
 *
 * cluster_sparse runs ps::train_cluster in-process on RCV1-style rows
 * (1% of 65536 coordinates): CsQ4, the sparse round loop, Elias-gamma
 * index streams, gather/scatter kernels, sparse applies, and checkpoints
 * published into a serve::ModelRegistry. It keeps three seed defects in
 * view at a steady level: every round pulls the full 256 KiB f32 model,
 * error feedback saturates the push support, and shard service outlasts
 * the 200 us in-process retransmit timeout, so every run retransmits.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"
#include "core/loss.h"
#include "core/trainer.h"
#include "dataset/problem.h"
#include "net/socket.h"
#include "obs/prom.h"
#include "obs/trace.h"
#include "ps/cluster.h"
#include "ps/node.h"
#include "ps/quantize.h"
#include "ps/server.h"
#include "ps/wire.h"
#include "serve/model_registry.h"
#include "simd/sparse_ops.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

namespace core = buckwild::core;
namespace dataset = buckwild::dataset;
namespace net = buckwild::net;
namespace ps = buckwild::ps;
namespace serve = buckwild::serve;
namespace simd = buckwild::simd;

// cluster_dense_tcp: at 4096 coordinates over TCP retransmit storms are
// rare (at 1024 coordinates in-process runs are bimodal, 89k-396k
// examples/s, and no median over them repeats).
constexpr std::size_t kTcpDim = 4096;
constexpr std::size_t kTcpRows = 2048;
constexpr std::size_t kTcpRounds = 400;

// cluster_sparse: each worker cycles its 512 rows for about two epochs, a
// job of about 3 s on one vCPU, so a run's median covers several jobs.
constexpr std::size_t kSparseDim = 65536;
constexpr std::size_t kSparseRows = 1024;
constexpr double kSparseDensity = 0.01;
constexpr std::size_t kSparseRounds = 60;
constexpr std::size_t kPublishEvery = 30;

// The benchmark and the program score the same float weights on the same
// float rows; they differ only in accumulating in double or float: by at
// most 8e-7 of the loss (cluster_dense_tcp) over seeds 1-5.
constexpr double kLossTolerance = 1e-5;

ps::ClusterConfig
cluster_config(const ps::Codec& codec, std::size_t rounds)
{
    ps::ClusterConfig cfg; // workers 2, shards 2, EF on, tau 8, batch 16
    cfg.codec = codec;
    cfg.rounds = rounds;
    return cfg;
}

std::size_t
examples_per_job(const ps::ClusterConfig& cfg)
{
    return cfg.workers * cfg.rounds * cfg.batch;
}

/// What one cluster lifecycle (set up, train, tear down) returns.
struct Job
{
    double setup_s = 0.0;
    double train_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t rounds = 0; ///< worker rounds completed
    std::vector<float> model;
    double program_loss = 0.0;
    double loss = 0.0; ///< the benchmark's recomputation
    double loss_gap = 0.0; ///< relative difference of the two losses
    std::vector<ps::ShardMetrics> shards;
    std::uint64_t encoded_bytes = 0; ///< push bytes the workers encoded
    std::vector<std::uint64_t> published;
    std::uint64_t registry_version = 0;
};

/// One cluster over loopback sockets, built the way a deployment runs
/// its node roles: listeners bound first, shard nodes serving, a control
/// connection proven by one stats round trip (the set-up), then the
/// worker nodes (the training phase), then snapshot, stats, shutdown.
Job
tcp_job(const dataset::DenseProblem& problem, const ps::ClusterConfig& cfg)
{
    Job job;
    const double t0 = now_s();
    std::vector<net::Fd> listeners(cfg.shards);
    std::vector<net::Address> addresses(cfg.shards);
    for (std::size_t s = 0; s < cfg.shards; ++s) {
        std::uint16_t port = 0;
        std::string error;
        listeners[s] = net::listen_tcp("127.0.0.1", 0, 16, &port, &error);
        if (!listeners[s].valid()) throw std::runtime_error(error);
        addresses[s] = {"127.0.0.1", port};
    }
    buckwild::WorkerGroup shard_threads;
    shard_threads.start(cfg.shards, [&](std::size_t s) {
        obs::ScopedSpan span("bench", "run_shard_node");
        ps::ShardNodeOptions node;
        node.index = s;
        node.adopt_listen_fd = listeners[s].release();
        ps::run_shard_node(cfg, problem.dim, node);
    });
    ps::ControlClient control(cfg, addresses);
    control.stats();
    job.setup_s = now_s() - t0;

    std::vector<ps::WorkerStats> workers(cfg.workers);
    const double cpu0 = process_cpu_s();
    const double t1 = now_s();
    {
        buckwild::WorkerGroup worker_threads;
        worker_threads.start(cfg.workers, [&](std::size_t w) {
            obs::ScopedSpan span("bench", "run_worker_node");
            workers[w] = ps::run_worker_node(cfg, problem, w, addresses);
        });
        worker_threads.join();
    }
    job.train_s = now_s() - t1;
    job.cpu_s = process_cpu_s() - cpu0;

    job.model = control.snapshot(problem.dim);
    double accuracy = 0.0;
    ps::evaluate_model(problem, cfg.loss, job.model, &job.program_loss,
                       &accuracy);
    job.shards = control.stats();
    control.shutdown();
    shard_threads.join();
    for (const ps::WorkerStats& w : workers) {
        job.rounds += w.rounds;
        job.encoded_bytes += w.encoded_bytes;
    }
    return job;
}

/// One in-process train_cluster run publishing into a registry. Its
/// set-up happens inside the call, so the set-up of an identical
/// parameter server (construct + start) is timed beside it.
Job
sparse_job(const dataset::SparseProblem& problem, const ps::ClusterConfig& cfg)
{
    Job job;
    {
        ps::PsConfig server_cfg;
        server_cfg.shards = cfg.shards;
        server_cfg.workers = cfg.workers;
        server_cfg.tau = cfg.tau;
        server_cfg.step_size = cfg.step_size;
        server_cfg.batch = cfg.batch;
        server_cfg.codec = cfg.codec;
        server_cfg.loss = cfg.loss;
        server_cfg.impl = cfg.impl;
        const double t0 = now_s();
        ps::ParameterServer server(problem.dim, server_cfg);
        server.start();
        job.setup_s = now_s() - t0;
        server.stop();
    }
    serve::ModelRegistry registry;
    const std::uint64_t encoded0 = counter("ps.worker.encoded_bytes");
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    ps::ClusterResult result;
    {
        obs::ScopedSpan span("bench", "train_cluster");
        result = ps::train_cluster(problem, cfg, &registry);
    }
    job.train_s = now_s() - t0;
    job.cpu_s = process_cpu_s() - cpu0;
    job.rounds = result.rounds;
    job.model = std::move(result.checkpoint.weights);
    job.program_loss = result.final_loss;
    job.shards = std::move(result.metrics.shards);
    job.encoded_bytes = counter("ps.worker.encoded_bytes") - encoded0;
    job.published = std::move(result.published_versions);
    job.registry_version = registry.current_version();
    return job;
}

double
logistic_loss(const std::vector<float>& weights,
              const dataset::DenseProblem& problem)
{
    return logistic_loss_dense(weights, problem.x, problem.y);
}

double
logistic_loss(const std::vector<float>& weights,
              const dataset::SparseProblem& problem)
{
    double total = 0.0;
    for (std::size_t i = 0; i < problem.examples(); ++i) {
        const dataset::SparseRow& row = problem.rows[i];
        double z = 0.0;
        for (std::size_t j = 0; j < row.index.size(); ++j)
            z += static_cast<double>(weights[row.index[j]]) * row.value[j];
        total += perfbench::logistic_loss(z, problem.y[i]);
    }
    return total / static_cast<double>(problem.examples());
}

/// Totals over the jobs of one phase.
struct Phase
{
    std::vector<Job> jobs;
    double job_examples = 0.0;
    double examples = 0.0;
    double train_s = 0.0;
    std::uint64_t rounds = 0;

    /// Medians over the jobs: one run caught in a retransmit storm moves
    /// a mean, not the median.
    double
    ops_per_s() const
    {
        std::vector<double> rates;
        for (const Job& job : jobs)
            rates.push_back(job_examples / job.train_s);
        return median(rates);
    }
    double
    cpu_per_op() const
    {
        return median(each(&Job::cpu_s)) / job_examples;
    }

    std::vector<double>
    each(double Job::*field) const
    {
        std::vector<double> out;
        for (const Job& job : jobs) out.push_back(job.*field);
        return out;
    }
};

/// Checks one job's outputs against the configured work; returns true
/// when they are all correct.
template <typename Problem>
bool
check_job(const Problem& problem, const ps::ClusterConfig& cfg, Job& job,
          const Options& options, Report& report)
{
    const std::size_t before = report.failures().size();
    const std::uint64_t want_rounds = cfg.workers * cfg.rounds;
    std::uint64_t pushes = 0, push_bytes = 0;
    for (const ps::ShardMetrics& s : job.shards) {
        pushes += s.pushes;
        push_bytes += s.push_bytes;
    }
    report.check(job.rounds == want_rounds,
                 "worker rounds " + std::to_string(job.rounds) + " != " +
                     std::to_string(want_rounds));
    report.check(pushes == want_rounds * cfg.shards,
                 "applied pushes " + std::to_string(pushes) + " != " +
                     std::to_string(want_rounds * cfg.shards));
    report.check(push_bytes == job.encoded_bytes,
                 "shards applied " + std::to_string(push_bytes) +
                     " push bytes, workers encoded " +
                     std::to_string(job.encoded_bytes));
    if constexpr (std::is_same_v<Problem, dataset::SparseProblem>)
        report.check(!job.published.empty() &&
                         job.registry_version == job.published.back(),
                     "the registry does not serve the last published "
                     "checkpoint");
    if (options.inject == "nonfinite_model")
        job.model[0] = std::numeric_limits<float>::quiet_NaN();
    job.loss = logistic_loss(job.model, problem);
    job.loss_gap =
        check_train_loss(report, job.loss, job.program_loss, kLossTolerance);
    return report.failures().size() == before;
}

template <typename Problem, typename JobFn>
Phase
run_jobs(const Problem& problem, const ps::ClusterConfig& cfg,
         double seconds, const Options& options, Report& report,
         JobFn&& make_job)
{
    Phase phase;
    const double examples = static_cast<double>(examples_per_job(cfg));
    phase.job_examples = examples;
    const double stop = now_s() + seconds;
    while (now_s() < stop || phase.jobs.size() < 2) {
        Job job = make_job();
        const bool ok = check_job(problem, cfg, job, options, report);
        report.count(static_cast<std::uint64_t>(examples),
                     ok ? 0 : static_cast<std::uint64_t>(examples));
        phase.examples += examples;
        phase.train_s += job.train_s;
        phase.rounds += job.rounds;
        phase.jobs.push_back(std::move(job));
        if (!ok) break;
    }
    return phase;
}

void
report_end_to_end(const Phase& phase, const std::string& bytes_counter,
                  Report& report)
{
    report.set("ops_per_s", phase.ops_per_s());
    report.set("cpu_us_per_op", phase.cpu_per_op() * 1e6);
    report.set("model_loss", median(phase.each(&Job::loss)));
    report.set("setup_s", median(phase.each(&Job::setup_s)));
    report.set("bytes_per_op",
               static_cast<double>(counter(bytes_counter)) / phase.examples);
    const auto rounds = histo("ps.worker.round_seconds");
    report.set("latency_p50_us", rounds.p50 * 1e6);
    report.set("latency_p90_us",
               percentile(obs::MetricsRegistry::global()
                              .histogram("ps.worker.round_seconds")
                              .samples(),
                          90.0) *
                   1e6);
    report.set("ok_frac", 1.0 - static_cast<double>(report.failed()) /
                                    static_cast<double>(report.attempted()));
    const std::vector<double> gaps = phase.each(&Job::loss_gap);
    char gap[32];
    std::snprintf(gap, sizeof gap, "%.2e",
                  *std::max_element(gaps.begin(), gaps.end()));
    report.note("latency = worker round (ps.worker.round_seconds), " +
                std::to_string(rounds.count) + " rounds over " +
                std::to_string(phase.jobs.size()) +
                " cluster runs; largest relative train-loss gap to the "
                "program's " + gap);
}

/// Registry-derived layer metrics of a traced phase (the registry was
/// reset when the phase began).
struct LayerCounts
{
    obs::MetricsSnapshot::HistoSummary round, apply, ssp_wait, push_wire;
    double compute_s = 0.0;
    std::uint64_t retransmits = 0, net_bytes = 0, net_frames = 0;
    std::uint64_t sparse_nnz = 0;

    static LayerCounts
    read()
    {
        LayerCounts c;
        c.round = histo("ps.worker.round_seconds");
        c.apply = histo(obs::labeled("ps.hop_seconds", {{"hop", "apply"}}));
        c.ssp_wait =
            histo(obs::labeled("ps.hop_seconds", {{"hop", "ssp_wait"}}));
        c.push_wire =
            histo(obs::labeled("ps.hop_seconds", {{"hop", "push_wire"}}));
        c.compute_s = gauge("ps.worker.seconds");
        c.retransmits = counter("ps.rpc.retransmits");
        c.net_bytes = counter("net.sent_bytes");
        c.net_frames = counter("net.frames_sent");
        c.sparse_nnz = counter("ps.sparse_nnz");
        return c;
    }
};

/// Codec replay results: seconds per number for encode and decode.
struct CodecCost
{
    double encode_s = 0.0;
    double decode_s = 0.0;
};

/// The per-layer metrics both cluster workloads share. `numbers_per_round`
/// is what a worker encodes per round (the coordinates it pushes).
void
report_cluster_layers(const Phase& untraced, const Phase& traced,
                      const LayerCounts& c, const CodecCost& codec,
                      double numbers_per_round, double single_ops_per_s,
                      Report& report)
{
    const double rounds = static_cast<double>(traced.rounds);
    std::uint64_t pushes = 0, duplicates = 0, gated = 0, pull_bytes = 0,
                  push_bytes = 0;
    std::vector<std::uint64_t> staleness;
    for (const Job& job : traced.jobs)
        for (const ps::ShardMetrics& s : job.shards) {
            pushes += s.pushes;
            duplicates += s.duplicates;
            gated += s.gated;
            pull_bytes += s.pull_bytes;
            push_bytes += s.push_bytes;
            if (s.staleness_counts.size() > staleness.size())
                staleness.resize(s.staleness_counts.size(), 0);
            for (std::size_t i = 0; i < s.staleness_counts.size(); ++i)
                staleness[i] += s.staleness_counts[i];
        }
    double stale_sum = 0.0, stale_n = 0.0;
    for (std::size_t i = 0; i < staleness.size(); ++i) {
        stale_sum += static_cast<double>(i * staleness[i]);
        stale_n += static_cast<double>(staleness[i]);
    }
    const double shards = static_cast<double>(traced.jobs[0].shards.size());

    report.set("ps.worker.round_p50_us", c.round.p50 * 1e6);
    report.set("ps.worker.round_p99_us", c.round.p99 * 1e6);
    report.set("ps.worker.round_count", static_cast<double>(c.round.count));
    report.set("ps.worker.compute_share", c.compute_s / c.round.sum);
    report.set("ps.speedup_vs_single",
               untraced.ops_per_s() / single_ops_per_s);
    report.set("ps.codec.encode_ns_per_number", codec.encode_s * 1e9);
    report.set("ps.codec.decode_ns_per_number", codec.decode_s * 1e9);
    report.set("ps.codec.bits_per_number",
               8.0 * static_cast<double>(push_bytes) /
                   (numbers_per_round * rounds));
    report.set("ps.pull_bytes_per_round",
               static_cast<double>(pull_bytes) / rounds);
    report.set("ps.push_bytes_per_round",
               static_cast<double>(push_bytes) / rounds);
    report.set("ps.rpc.retries_per_round",
               static_cast<double>(c.retransmits) / rounds);
    report.set("ps.shard.dup_per_push",
               static_cast<double>(duplicates) / static_cast<double>(pushes));
    report.set("ps.ssp.bounce_per_push",
               static_cast<double>(gated) / static_cast<double>(pushes));
    report.set("ps.ssp.wait_us_per_round", c.ssp_wait.sum / rounds * 1e6);
    report.set("ps.staleness_mean", stale_n > 0 ? stale_sum / stale_n : 0.0);
    report.set("ps.shard.apply_p50_us", c.apply.p50 * 1e6);
    report.set("ps.shard.apply_busy_frac",
               c.apply.sum / (shards * traced.train_s));
    report.set("obs.trace_overhead",
               1.0 - traced.ops_per_s() / untraced.ops_per_s());

    // Where a mean worker round goes. Encode runs on the worker and
    // decode in the shard's push handler, both on the round's critical
    // path; apply is the shards' kernel time; the rest of the round is
    // RPC wait (transit, pulls, retransmit timeouts).
    const double round_s = c.round.sum / static_cast<double>(c.round.count);
    const double compute = c.compute_s / rounds;
    const double codec_s =
        (codec.encode_s + codec.decode_s) * numbers_per_round;
    const double apply = c.apply.sum / rounds;
    const double ssp = c.ssp_wait.sum / rounds;
    const double rpc = round_s - compute - codec_s - apply - ssp;
    report.set("ps.round.compute_share", compute / round_s);
    report.set("ps.round.codec_share", codec_s / round_s);
    report.set("ps.round.apply_share", apply / round_s);
    report.set("ps.round.ssp_wait_share", ssp / round_s);
    report.set("ps.round.rpc_wait_share", rpc / round_s);
    char line[256];
    std::snprintf(line, sizeof line,
                  "round p50 %.1f us (mean %.1f us over %zu rounds): compute "
                  "%.1f%%  codec %.1f%%  apply %.1f%%  ssp_wait %.1f%%  "
                  "rpc_wait %.1f%%",
                  c.round.p50 * 1e6, round_s * 1e6, c.round.count,
                  100 * compute / round_s, 100 * codec_s / round_s,
                  100 * apply / round_s, 100 * ssp / round_s,
                  100 * rpc / round_s);
    report.note(line);
}

/// Ops per second of the same rows and example count through
/// core::Trainer on one thread at 32-bit float: the single-worker
/// baseline the cluster's speedup is quoted against.
template <typename Problem>
double
single_worker_ops_per_s(const Problem& problem, buckwild::dmgc::Signature sig,
                        double examples)
{
    core::TrainerConfig cfg;
    cfg.signature = sig;
    cfg.threads = 1;
    cfg.record_loss_trace = false;
    const double rows = static_cast<double>(problem.y.size());
    cfg.epochs = static_cast<std::size_t>(std::ceil(examples / rows));
    core::Trainer trainer(cfg);
    obs::ScopedSpan span("bench", "Trainer::fit");
    const double t0 = now_s();
    trainer.fit(problem);
    return static_cast<double>(cfg.epochs) * rows / (now_s() - t0);
}

/// A minibatch gradient of the workload's shape over shard 0's slice:
/// `batch` rows, each weighted by a logistic coefficient of +-0.5.
std::vector<float>
dense_slice_gradient(const dataset::DenseProblem& problem, std::size_t n,
                     std::size_t batch)
{
    std::vector<float> g(n, 0.0f);
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t k = 0; k < n; ++k)
            g[k] += 0.5f * problem.y[b] * problem.row(b)[k];
    return g;
}

/// The pushes worker 0 sends shard 0 over one job, rebuilt the way the
/// sparse round loop builds them: each round's minibatch gradient over
/// the coordinates its rows touch, plus the error-feedback residual the
/// previous round's encode left behind, so the push support grows round
/// by round as the workload's does. Margins use the trained `model`.
struct SparsePushes
{
    std::uint32_t slice = 0; ///< shard 0's coordinates
    std::vector<std::vector<std::uint32_t>> index;
    std::vector<std::vector<float>> value;
    double nnz = 0.0; ///< summed over the pushes
};

SparsePushes
replay_sparse_pushes(const dataset::SparseProblem& problem,
                     const ps::ClusterConfig& cfg,
                     const std::vector<float>& model, std::uint64_t seed)
{
    SparsePushes pushes;
    pushes.slice =
        static_cast<std::uint32_t>(ps::slice_end(problem.dim, cfg.shards, 0));
    const std::size_t rows = problem.examples() / cfg.workers;
    std::vector<float> acc(pushes.slice, 0.0f);
    std::vector<float> residual(pushes.slice, 0.0f);
    std::vector<std::uint8_t> touched(pushes.slice, 0);
    std::vector<float> encoded_residual;
    buckwild::rng::Xorshift128Plus rng(seed);
    for (std::size_t round = 0; round < cfg.rounds; ++round) {
        for (std::size_t b = 0; b < cfg.batch; ++b) {
            const std::size_t i = (round * cfg.batch + b) % rows;
            const dataset::SparseRow& row = problem.rows[i];
            const float z = simd::SparseOps<std::uint32_t>::dot(
                row.value.data(), row.index.data(), row.index.size(),
                model.data(), 1.0f, simd::sparse::IndexMode::kAbsolute);
            const float g =
                core::loss_gradient_coefficient(cfg.loss, z, problem.y[i]);
            if (g == 0.0f) continue;
            for (std::size_t j = 0; j < row.index.size(); ++j)
                if (row.index[j] < pushes.slice) {
                    touched[row.index[j]] = 1;
                    acc[row.index[j]] += g * row.value[j];
                }
        }
        std::vector<std::uint32_t> index;
        std::vector<float> value;
        for (std::uint32_t k = 0; k < pushes.slice; ++k)
            if (touched[k] || residual[k] != 0.0f) {
                index.push_back(k);
                value.push_back(acc[k] + residual[k]);
                touched[k] = 0;
                acc[k] = 0.0f;
            }
        encoded_residual.assign(index.size(), 0.0f);
        ps::encode_sparse_gradient(
            ps::GradientView::sparse_view<std::uint32_t>(
                value.data(), index.data(), index.size(), pushes.slice,
                simd::sparse::IndexMode::kAbsolute),
            cfg.codec, encoded_residual.data(), &rng);
        for (std::size_t j = 0; j < index.size(); ++j)
            residual[index[j]] = encoded_residual[j];
        pushes.nnz += static_cast<double>(index.size());
        pushes.index.push_back(std::move(index));
        pushes.value.push_back(std::move(value));
    }
    return pushes;
}

} // namespace

void
run_cluster_dense_tcp(const Options& options, Report& report)
{
    const dataset::DenseProblem problem =
        dataset::generate_logistic_dense(kTcpDim, kTcpRows, options.seed);
    const ps::ClusterConfig cfg =
        cluster_config(ps::Codec::from_bits(8), kTcpRounds);
    const auto job = [&] { return tcp_job(problem, cfg); };

    if (!options.trace) {
        obs::MetricsRegistry::global().reset();
        const Phase phase =
            run_jobs(problem, cfg, options.seconds, options, report, job);
        report_end_to_end(phase, "net.sent_bytes", report);
        return;
    }

    const Phase untraced =
        run_jobs(problem, cfg, options.seconds * 0.35, options, report, job);
    obs::MetricsRegistry::global().reset();
    TraceSession session;
    const Phase traced =
        run_jobs(problem, cfg, options.seconds * 0.35, options, report, job);
    const LayerCounts counts = LayerCounts::read();

    // Codec and wire replays on one shard slice of the workload.
    const std::size_t slice = ps::slice_end(kTcpDim, cfg.shards, 0);
    const std::vector<float> g = dense_slice_gradient(problem, slice, cfg.batch);
    std::vector<float> residual(slice, 0.0f);
    buckwild::rng::Xorshift128Plus rng(options.seed);
    CodecCost codec;
    ps::WireGradient wire;
    {
        obs::ScopedSpan span("bench", "replay.ps.codec");
        codec.encode_s = time_per_call(options.seconds * 0.03, [&] {
            wire = ps::encode_gradient(g.data(), slice, cfg.codec,
                                       residual.data(), &rng);
        }) / static_cast<double>(slice);
        codec.decode_s = time_per_call(options.seconds * 0.03, [&] {
            const std::vector<float> out = ps::decode_gradient(wire);
            if (out.size() != slice) throw std::logic_error("decode size");
        }) / static_cast<double>(slice);
    }
    ps::Message push;
    push.kind = ps::Message::Kind::kPush;
    push.gradient = wire;
    ps::Message pull_reply;
    pull_reply.kind = ps::Message::Kind::kModel;
    pull_reply.weights.assign(problem.w_true.begin(),
                              problem.w_true.begin() + slice);
    double serialize_s = 0.0, deserialize_s = 0.0, bytes = 0.0;
    {
        obs::ScopedSpan span("bench", "replay.ps.wire");
        for (const ps::Message* m : {&push, &pull_reply}) {
            std::vector<std::uint8_t> frame;
            serialize_s += time_per_call(options.seconds * 0.02, [&] {
                frame = ps::serialize_message(*m);
            });
            ps::Message parsed;
            deserialize_s += time_per_call(options.seconds * 0.02, [&] {
                if (!ps::deserialize_message(frame.data(), frame.size(),
                                             parsed))
                    throw std::logic_error("replayed frame did not parse");
            });
            bytes += static_cast<double>(frame.size());
        }
    }
    const double single = single_worker_ops_per_s(
        problem, buckwild::dmgc::Signature::dense_hogwild(),
        static_cast<double>(examples_per_job(cfg)));
    session.finish(options, report);

    report_cluster_layers(untraced, traced, counts, codec,
                          static_cast<double>(kTcpDim), single, report);
    report.set("ps.wire.serialize_ns_per_byte", serialize_s / bytes * 1e9);
    report.set("ps.wire.deserialize_ns_per_byte", deserialize_s / bytes * 1e9);
    report.set("ps.hop.push_wire_p50_us", counts.push_wire.p50 * 1e6);
    const double rounds = static_cast<double>(traced.rounds);
    report.set("net.bytes_per_round",
               static_cast<double>(counts.net_bytes) / rounds);
    report.set("net.frames_per_round",
               static_cast<double>(counts.net_frames) / rounds);
}

void
run_cluster_sparse(const Options& options, Report& report)
{
    const dataset::SparseProblem problem = dataset::generate_logistic_sparse(
        kSparseDim, kSparseRows, kSparseDensity, options.seed);
    ps::ClusterConfig cfg = cluster_config(ps::Codec::qsgd(4), kSparseRounds);
    cfg.publish_every = kPublishEvery;
    const auto job = [&] { return sparse_job(problem, cfg); };

    if (!options.trace) {
        obs::MetricsRegistry::global().reset();
        const Phase phase =
            run_jobs(problem, cfg, options.seconds, options, report, job);
        report_end_to_end(phase, "ps.transport.sent_bytes", report);
        return;
    }

    const Phase untraced =
        run_jobs(problem, cfg, options.seconds * 0.35, options, report, job);
    obs::MetricsRegistry::global().reset();
    TraceSession session;
    const Phase traced =
        run_jobs(problem, cfg, options.seconds * 0.35, options, report, job);
    const LayerCounts counts = LayerCounts::read();

    // Codec replay on one job's worth of the pushes worker 0 sends shard
    // 0, carried residual included, so the per-number costs are taken at
    // the workload's push density.
    const SparsePushes pushes = replay_sparse_pushes(
        problem, cfg, traced.jobs.back().model, options.seed);
    std::vector<ps::GradientView> views;
    std::vector<std::vector<float>> encoded_residual;
    for (std::size_t r = 0; r < pushes.index.size(); ++r) {
        views.push_back(ps::GradientView::sparse_view<std::uint32_t>(
            pushes.value[r].data(), pushes.index[r].data(),
            pushes.index[r].size(), pushes.slice,
            simd::sparse::IndexMode::kAbsolute));
        encoded_residual.emplace_back(pushes.index[r].size(), 0.0f);
    }
    buckwild::rng::Xorshift128Plus rng(options.seed);
    CodecCost codec;
    std::vector<ps::WireGradient> wires(views.size());
    {
        obs::ScopedSpan span("bench", "replay.ps.codec");
        codec.encode_s = time_per_call(options.seconds * 0.03, [&] {
            for (std::size_t r = 0; r < views.size(); ++r)
                wires[r] = ps::encode_sparse_gradient(
                    views[r], cfg.codec, encoded_residual[r].data(), &rng);
        }) / pushes.nnz;
        codec.decode_s = time_per_call(options.seconds * 0.03, [&] {
            for (std::size_t r = 0; r < wires.size(); ++r)
                if (ps::decode_sparse_gradient(wires[r]).nnz() !=
                    pushes.index[r].size())
                    throw std::logic_error("decode nnz");
        }) / pushes.nnz;
    }
    std::vector<float> model(kSparseDim, 0.01f);
    double sparse_dot_s = 0.0;
    {
        obs::ScopedSpan span("bench", "replay.simd.sparse_dot");
        float sink = 0.0f;
        sparse_dot_s = time_per_call(options.seconds * 0.03, [&] {
            for (const dataset::SparseRow& row : problem.rows)
                sink += simd::SparseOps<std::uint32_t>::dot(
                    row.value.data(), row.index.data(), row.index.size(),
                    model.data(), 1.0f, simd::sparse::IndexMode::kAbsolute);
        });
        do_not_optimize(sink);
    }
    const double single = single_worker_ops_per_s(
        problem, buckwild::dmgc::Signature::sparse_hogwild(),
        static_cast<double>(examples_per_job(cfg)));
    session.finish(options, report);

    const double rounds = static_cast<double>(traced.rounds);
    const double pushed_per_round =
        static_cast<double>(counts.sparse_nnz) / rounds;
    report_cluster_layers(untraced, traced, counts, codec, pushed_per_round,
                          single, report);
    report.set("ps.sparse.support_frac",
               pushed_per_round / static_cast<double>(kSparseDim));
    report.note("codec replay: worker 0's " +
                std::to_string(pushes.index.size()) +
                " pushes to shard 0, support " +
                std::to_string(pushes.nnz /
                               static_cast<double>(pushes.index.size()) /
                               static_cast<double>(pushes.slice)) +
                " of the slice (the workload's ps.sparse.support_frac " +
                std::to_string(pushed_per_round /
                               static_cast<double>(kSparseDim)) +
                ")");
    report.set("simd.sparse_dot_gnps",
               static_cast<double>(problem.nnz()) / sparse_dot_s / 1e9);
    double publishes = 0.0;
    for (const Job& j : traced.jobs)
        publishes += static_cast<double>(j.published.size());
    report.set("ps.publishes",
               publishes / static_cast<double>(traced.jobs.size()));
}

} // namespace perfbench
