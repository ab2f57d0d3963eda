/**
 * @file
 * buckwild_cluster — sharded parameter-server training with quantized
 * push/pull, bounded staleness, and fault injection.
 *
 * Trains a synthetic dense logistic problem on W workers pushing
 * quantized gradients into S model shards, sweeping the communication
 * codec, and prints a per-tier table of convergence, wire traffic, and
 * cluster health:
 *
 *     buckwild_cluster --workers 4 --shards 2 --bits 32,8,Q4,1
 *     buckwild_cluster --bits 1 --drop 0.02 --jitter-us 50 --reorder 4
 *     buckwild_cluster --bits 8 --publish-every 100 --save model.bw
 *
 * --sparse switches the workload to a synthetic RCV1-style sparse
 * logistic problem (libsvm-shaped CSR rows at --density); every push on
 * the wire is then a quantized sparse gradient — nnz values plus an
 * Elias-gamma index-gap stream. --libsvm PATH trains on a real libsvm
 * file instead:
 *
 *     buckwild_cluster --sparse --density 0.02 --bits 32,Q4
 *     buckwild_cluster --spawn --sparse --bits Q4   # sparse over TCP
 *     buckwild_cluster --libsvm rcv1.svm --bits 8
 *
 * By default the cluster is worker *threads* over the in-process
 * transport. The same cluster runs as real processes over TCP:
 *
 *     buckwild_cluster --spawn --bits Q4          # fork it all locally
 *     # or assemble it by hand (ports must agree across commands):
 *     buckwild_cluster --listen 127.0.0.1:7001 --shard-index 0 &
 *     buckwild_cluster --listen 127.0.0.1:7002 --shard-index 1 &
 *     buckwild_cluster --connect 127.0.0.1:7001,127.0.0.1:7002 \
 *                      --worker-index 0 &
 *     buckwild_cluster --connect 127.0.0.1:7001,127.0.0.1:7002 \
 *                      --worker-index 1 &
 *     wait %3 %4   # workers exit when their rounds are done
 *     buckwild_cluster --control 127.0.0.1:7001,127.0.0.1:7002
 *
 * Every process must be launched with the same --dense/--seed/--workers/
 * --shards/--rounds/--bits so the problem and the endpoint geometry
 * agree; --control snapshots the model, evaluates it, prints per-shard
 * stats, and shuts the shards down. Distributed modes train the first
 * --bits tier only.
 *
 * --publish-every checkpoints the shards straight into a
 * serve::ModelRegistry mid-run (the train-to-serve hot-swap path); the
 * final model is always published, and --save also writes it as a
 * BUCKWILD-MODEL file that buckwild_serve can load. (In-process sweep
 * only — remote shards share no address space with a registry.)
 *
 * Run with --help for the full flag list.
 */
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataset/libsvm.h"
#include "dataset/problem.h"
#include "net/net.h"
#include "obs/obs.h"
#include "obs_cli.h"
#include "ps/ps.h"
#include "serve/serve.h"
#include "util/table.h"

namespace {

using namespace buckwild;

enum class Mode { kSweep, kSpawn, kShard, kWorker, kControl };

struct Options
{
    Mode mode = Mode::kSweep;
    std::size_t dim = 256;
    std::size_t examples = 4096;
    bool sparse = false;
    double density = 0.05;
    std::string libsvm_path;
    std::uint64_t seed = 0x5EED;
    /// Shards, tau, batch and step keep ClusterConfig's defaults.
    ps::ClusterConfig cluster = [] {
        ps::ClusterConfig cluster;
        cluster.workers = 4;
        cluster.rounds = 400;
        return cluster;
    }();
    std::vector<ps::Codec> codecs = {ps::Codec::from_bits(32),
                                     ps::Codec::from_bits(8),
                                     ps::Codec::from_bits(1)};
    std::string save_path;
    // Multi-process role parameters.
    net::Address listen;
    std::size_t shard_index = 0;
    std::vector<net::Address> shard_addresses;
    std::size_t worker_index = 0;
    tools::ObsCliOptions obs;
    bool csv = false;
};

tools::flags::Table
cli(Options& opt)
{
    namespace flags = tools::flags;
    flags::Table t("buckwild_cluster — sharded parameter-server training");
    ps::ClusterConfig& c = opt.cluster;
    const flags::Action sparse = flags::set(opt.sparse, true);

    t.section("problem:");
    t.flag({"--dense"}, "DIM EXAMPLES",
           "synthetic dense logistic problem (default 256 4096)",
           flags::count(opt.dim, 1))
        .value(flags::count(opt.examples, 1));
    t.flag({"--sparse"}, "synthetic RCV1-style sparse logistic problem "
           "instead (libsvm-shaped rows at --density over the --dense "
           "geometry); pushes become quantized sparse gradients", sparse);
    t.flag({"--density"}, "D", "sparse nonzero fraction per row (default "
           "0.05; implies --sparse)", flags::real(opt.density), sparse);
    t.flag({"--libsvm"}, "PATH", "train on a libsvm file (implies --sparse; "
           "dim inferred from the data)", flags::text(opt.libsvm_path), sparse);
    t.flag({"--loss"}, "L", "logistic | squared | hinge (default logistic)",
           flags::choice(c.loss, {{"logistic", core::Loss::kLogistic},
                                  {"squared", core::Loss::kSquared},
                                  {"hinge", core::Loss::kHinge}}));
    t.flag({"--seed"}, "X", "problem RNG seed, decimal (default 24301 = "
           "0x5EED)", flags::count(opt.seed));

    t.section("cluster:");
    t.flag({"--workers"}, "W", "workers (default 4)", flags::count(c.workers));
    t.flag({"--shards"}, "S", "model shards (default 2)",
           flags::count(c.shards));
    t.flag({"--bits"}, "B[,B,...]", "comm codec sweep: 32 | 8 | 1 | Q2..Q8 "
           "(\"Cs\" prefix optional; default 32,8,1)",
           flags::list(opt.codecs, &ps::Codec::parse));
    t.flag({"--tau"}, "T", "staleness bound in rounds (default 8)",
           flags::count(c.tau));
    t.flag({"--rounds"}, "N", "rounds per worker (default 400)",
           flags::count(c.rounds));
    t.flag({"--batch"}, "B", "examples per worker round (default 16)",
           flags::count(c.batch));
    t.flag({"--step"}, "S", "step size (default 0.25)",
           flags::real(c.step_size));
    t.flag({"--no-feedback"}, "disable error feedback (shows why Cs1 needs "
           "it)", flags::set(c.error_feedback, false));
    t.flag({"--impl"}, "I", "reference | naive | avx2 | fma | avx512 "
           "(default: fastest supported; the BUCKWILD_KERNEL_IMPL env var "
           "overrides)", flags::parsed(c.impl, simd::parse_impl));

    t.section("multi-process (loopback or real network; first --bits tier):");
    t.flag({"--spawn"}, "fork S shard + W worker processes over loopback "
           "TCP instead of threads", flags::set(opt.mode, Mode::kSpawn));
    t.flag({"--listen"}, "HOST:PORT", "run ONE shard process (port 0 = pick "
           "a free port, printed at startup)",
           flags::parsed(opt.listen, net::parse_address),
           flags::set(opt.mode, Mode::kShard));
    t.flag({"--shard-index"}, "S", "which shard --listen serves (default 0)",
           flags::count(opt.shard_index));
    t.flag({"--connect"}, "A1,A2,...", "run ONE worker process against the "
           "listed shard addresses (in shard order)",
           flags::list(opt.shard_addresses, net::parse_address),
           flags::set(opt.mode, Mode::kWorker));
    t.flag({"--worker-index"}, "W", "which worker --connect runs (default 0)",
           flags::count(opt.worker_index));
    t.flag({"--control"}, "A1,A2,...",
           "snapshot + evaluate + stats, then shut the listed shards down",
           flags::list(opt.shard_addresses, net::parse_address),
           flags::set(opt.mode, Mode::kControl));
    t.flag({"--trace-dir"}, "DIR", "(--spawn) distributed tracing: every "
           "process writes DIR/<role>.trace.json (control, shardN, workerN); "
           "stitch them with buckwild_tracemerge --dir DIR (a multi-tier "
           "sweep overwrites per tier)", flags::text(c.trace_dir));
    t.flag({"--fleet-port"}, "N", "(--spawn) control node scrapes every "
           "child and serves ONE merged, node-labeled /metrics on port N (0 "
           "= any free port); the final snapshot is kept as DIR/fleet.prom "
           "under --trace-dir", flags::port(c.fleet_port));

    t.section("fault injection (the transport's FaultModel; multi-process "
              "modes\napply it sender-side at workers and control):");
    t.flag({"--drop"}, "P", "message drop probability (default 0)",
           flags::real(c.faults.drop_prob));
    t.flag({"--jitter-us"}, "N", "max delivery jitter in us (default 0)",
           flags::count(c.faults.jitter_us));
    t.flag({"--reorder"}, "W", "delivery reorder window (default 1 = FIFO)",
           flags::count(c.faults.reorder_window));

    t.section("publish / save:");
    t.flag({"--publish-every"}, "N", "registry checkpoint every N applied "
           "worker rounds (0 = final only; in-process sweep only)",
           flags::count(c.publish_every));
    t.flag({"--precision"}, "P",
           "registry precision Ms8 | Ms16 | Ms32f (default Ms32f)",
           flags::parsed(c.publish_precision, serve::parse_precision));
    t.flag({"--save"}, "PATH", "write the last run's final model",
           flags::text(opt.save_path));
    t.flag({"--csv"}, "also print the table as CSV", flags::set(opt.csv, true));

    t.section("observability:");
    tools::add_obs_flags(t, opt.obs);
    return t;
}

/// The cross-flag checks the table cannot make flag by flag.
void
check(const Options& opt)
{
    using tools::flags::usage_error;
    if (opt.sparse && (opt.density <= 0.0 || opt.density > 1.0))
        usage_error("need --density in (0, 1]");
    if (opt.mode == Mode::kShard && opt.shard_index >= opt.cluster.shards)
        usage_error("--shard-index out of range");
    if (opt.mode == Mode::kWorker && opt.worker_index >= opt.cluster.workers)
        usage_error("--worker-index out of range");
    if ((opt.mode == Mode::kWorker || opt.mode == Mode::kControl) &&
        opt.shard_addresses.size() != opt.cluster.shards)
        usage_error("address list must name every shard (--shards of them)");
}

/// The provenance row the obs roofline is matched against: dense worker
/// compute is the dense Hogwild! row, sparse workloads the sparse one.
dmgc::Signature
workload_signature(const Options& opt)
{
    return opt.sparse ? dmgc::Signature::sparse_hogwild()
                      : dmgc::Signature::dense_hogwild();
}

void
print_cluster_lines(const Options& opt, const char* fabric)
{
    std::printf("cluster: %zu workers x %zu shards over %s, tau %zu, "
                "%zu rounds x batch %zu, step %.3g, kernels %s%s\n",
                opt.cluster.workers, opt.cluster.shards, fabric,
                opt.cluster.tau, opt.cluster.rounds, opt.cluster.batch,
                static_cast<double>(opt.cluster.step_size),
                simd::to_string(opt.cluster.impl),
                opt.cluster.error_feedback ? "" : ", no error feedback");
    if (opt.cluster.faults.any())
        std::printf("faults: drop %.3g, jitter %zu us, reorder %zu\n",
                    opt.cluster.faults.drop_prob,
                    opt.cluster.faults.jitter_us,
                    opt.cluster.faults.reorder_window);
}

void
print_cluster_banner(const Options& opt, const dataset::DenseProblem& problem,
                     const char* fabric)
{
    std::printf("problem: dense logistic, dim %zu, %zu examples\n",
                problem.dim, problem.examples);
    print_cluster_lines(opt, fabric);
}

void
print_cluster_banner(const Options& opt, const dataset::SparseProblem& problem,
                     const char* fabric)
{
    const dataset::SparseStats stats = dataset::sparse_stats(problem);
    std::printf("problem: sparse logistic (%s), dim %zu, %zu examples, "
                "%llu nnz (density %.4g, %zu..%zu per row)\n",
                opt.libsvm_path.empty() ? "synthetic libsvm"
                                        : opt.libsvm_path.c_str(),
                stats.dim, stats.examples,
                static_cast<unsigned long long>(stats.nnz), stats.density,
                stats.min_row_nnz, stats.max_row_nnz);
    print_cluster_lines(opt, fabric);
}

void
add_sweep_row(TablePrinter& table, const ps::ClusterResult& r)
{
    const auto& m = r.metrics;
    std::uint64_t duplicates = 0;
    for (const auto& s : m.shards) duplicates += s.duplicates;
    table.add_row(
        {r.comm, format_num(r.final_loss, 4), format_num(r.accuracy, 4),
         format_num(r.bytes_per_round, 4), std::to_string(m.total_pushes()),
         std::to_string(m.total_gated()), std::to_string(duplicates),
         std::to_string(m.max_staleness()), std::to_string(m.rpc_retries),
         std::to_string(m.messages_dropped), format_num(r.wall_seconds, 3),
         format_num(m.gnps(), 3),
         std::to_string(r.published_versions.empty()
                            ? 0
                            : r.published_versions.back())});
}

/// The default mode: sweep the codec tiers in-process (--spawn: as
/// forked processes over loopback TCP). Templated over the problem so
/// the dense and sparse (libsvm) workloads share every code path — the
/// ps overloads pick the dense or sparse round loop by type.
template <typename Problem>
int
run_sweep(const Options& opt, const Problem& problem)
{
    const bool spawn = opt.mode == Mode::kSpawn;
    print_cluster_banner(opt, problem,
                         spawn ? "loopback TCP (forked processes)"
                               : "in-process transport");

    TablePrinter table(
        spawn ? std::string("parameter-server training (multi-process)")
              : "parameter-server training (publishes " +
                    to_string(opt.cluster.publish_precision) + ")",
        {"comm", "loss", "acc", "B/round", "pushes", "gated", "dup",
         "stale", "retry", "drops", "wall s", "GNPS", "registry v"});

    serve::ModelRegistry registry;
    std::optional<ps::ClusterResult> last;

    // Worker compute is float minibatch gradients (the quantization is
    // on the wire, not in the arithmetic), so the roofline is the dense
    // D32fM32f row at the worker count — or the sparse i32 row when the
    // gradients are CSR accumulations.
    tools::ObsSession::Workload workload;
    workload.signature = workload_signature(opt);
    workload.threads = opt.cluster.workers;
    workload.model_size = opt.dim;
    workload.numbers_gauge = "ps.worker.numbers";
    workload.seconds_gauge = "ps.worker.seconds";

    // --spawn forks: every run must happen while this process is still
    // single-threaded, so the full ObsSession (whose live tier spawns
    // the sampler thread) waits until after the sweep. Enabling the
    // tracer is thread-free, so traces still cover the runs; per-run
    // metrics land in the global registry for the batch exports.
    std::optional<tools::ObsSession> session;
    if (!spawn)
        session.emplace(opt.obs, workload);
    else if (!opt.obs.trace_path.empty()) {
        obs::Tracer::global().set_enabled(true);
        if (opt.cluster.trace_dir.empty())
            std::fprintf(stderr,
                         "note: --trace-out under --spawn covers only "
                         "this (control) process; use --trace-dir for "
                         "per-process traces that buckwild_tracemerge "
                         "can stitch\n");
    }

    for (const ps::Codec& codec : opt.codecs) {
        ps::ClusterConfig cfg = opt.cluster;
        cfg.codec = codec;
        ps::ClusterResult r =
            spawn ? ps::train_cluster_multiprocess(problem, cfg)
                  : ps::train_cluster(problem, cfg, &registry);
        r.metrics.publish(obs::MetricsRegistry::global(),
                          "ps." + r.comm + ".");
        add_sweep_row(table, r);
        last = std::move(r);
    }

    if (spawn) session.emplace(opt.obs, workload);

    table.print(std::cout);
    if (opt.csv) table.print_csv(std::cout);

    if (spawn && last) {
        if (last->fleet_port >= 0)
            std::printf("fleet: merged node-labeled /metrics served on "
                        "port %d (final snapshot %zu bytes)\n",
                        last->fleet_port, last->fleet_metrics.size());
        if (!opt.cluster.trace_dir.empty())
            std::printf("traces: per-process Chrome traces in %s — merge "
                        "with: buckwild_tracemerge --dir %s\n",
                        opt.cluster.trace_dir.c_str(),
                        opt.cluster.trace_dir.c_str());
    }

    if (last) {
        if (!spawn)
            std::printf("registry: version %llu published (%zu checkpoints "
                        "over the last run)\n",
                        static_cast<unsigned long long>(
                            registry.current_version()),
                        last->published_versions.size());
        if (!opt.save_path.empty()) {
            core::save_model_file(last->checkpoint, opt.save_path);
            std::printf("saved %s (%s) to %s\n", last->comm.c_str(),
                        last->checkpoint.signature.to_string().c_str(),
                        opt.save_path.c_str());
        }
    }

    session->finish();
    return 0;
}

/// --listen: serve one shard until a control client shuts it down.
/// Shards are problem-agnostic (they apply whatever pushes arrive); the
/// problem only fixes the model dimension.
template <typename Problem>
int
run_shard(const Options& opt, const Problem& problem)
{
    // Bind here (not inside run_shard_node) so the actual port is
    // printed before serving — scripts block on this line.
    std::string error;
    std::uint16_t port = opt.listen.port;
    net::Fd listener =
        net::listen_tcp(opt.listen.host, port, 64, &port, &error);
    if (!listener.valid())
        throw std::runtime_error("bind " + opt.listen.to_string() + ": " +
                                 error);
    std::printf("shard %zu listening on %s:%u (%s)\n", opt.shard_index,
                opt.listen.host.c_str(), port,
                opt.cluster.codec.name().c_str());
    std::fflush(stdout);

    tools::ObsSession::Workload workload;
    workload.signature = workload_signature(opt);
    workload.threads = opt.cluster.workers;
    workload.model_size = opt.dim;
    workload.process = "shard" + std::to_string(opt.shard_index);
    tools::ObsSession session(opt.obs, workload);

    ps::ShardNodeOptions node;
    node.index = opt.shard_index;
    node.adopt_listen_fd = listener.release();
    const ps::ShardMetrics m =
        ps::run_shard_node(opt.cluster, problem.dim, node);
    std::printf("shard %zu done: %llu pushes (%llu dup, %llu gated), "
                "%llu pulls, %llu push B, %llu pull B, max stale %zu\n",
                opt.shard_index,
                static_cast<unsigned long long>(m.pushes),
                static_cast<unsigned long long>(m.duplicates),
                static_cast<unsigned long long>(m.gated),
                static_cast<unsigned long long>(m.pulls),
                static_cast<unsigned long long>(m.push_bytes),
                static_cast<unsigned long long>(m.pull_bytes),
                m.max_staleness());
    session.finish();
    return 0;
}

/// --connect: run one worker's rounds against remote shards.
template <typename Problem>
int
run_worker(const Options& opt, const Problem& problem)
{
    std::printf("worker %zu connecting to %zu shards (%s)\n",
                opt.worker_index, opt.shard_addresses.size(),
                opt.cluster.codec.name().c_str());
    std::fflush(stdout);

    tools::ObsSession::Workload workload;
    workload.signature = workload_signature(opt);
    workload.threads = 1;
    workload.model_size = opt.dim;
    workload.numbers_gauge = "ps.worker.numbers";
    workload.seconds_gauge = "ps.worker.seconds";
    workload.process = "worker" + std::to_string(opt.worker_index);
    tools::ObsSession session(opt.obs, workload);

    const ps::WorkerStats stats = ps::run_worker_node(
        opt.cluster, problem, opt.worker_index, opt.shard_addresses);
    std::printf("worker %zu done: %llu rounds in %.3fs, %llu retries, "
                "%llu encoded B\n",
                opt.worker_index,
                static_cast<unsigned long long>(stats.rounds), stats.seconds,
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.encoded_bytes));
    session.finish();
    return 0;
}

/// --control: snapshot + evaluate the remote model, print shard stats,
/// shut the cluster down.
template <typename Problem>
int
run_control(const Options& opt, const Problem& problem)
{
    tools::ObsSession::Workload workload;
    workload.signature = workload_signature(opt);
    workload.threads = 1;
    workload.model_size = opt.dim;
    workload.process = "control";
    tools::ObsSession session(opt.obs, workload);

    ps::ControlClient control(opt.cluster, opt.shard_addresses);
    const std::vector<float> model = control.snapshot(problem.dim);
    double loss = 0.0, accuracy = 0.0;
    ps::evaluate_model(problem, opt.cluster.loss, model, &loss, &accuracy,
                       opt.cluster.impl);
    std::printf("control: final_loss %.6f accuracy %.6f\n", loss, accuracy);

    const std::vector<ps::ShardMetrics> shards = control.stats();
    std::vector<std::string> columns = {"shard",  "pushes", "dup",
                                        "gated",  "pulls",  "push B",
                                        "pull B", "stale"};
    if (opt.sparse) {
        columns.push_back("nnz");
        columns.push_back("sparse B");
    }
    TablePrinter table("remote shard stats", columns);
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const auto& m = shards[s];
        std::vector<std::string> row = {
            std::to_string(s),          std::to_string(m.pushes),
            std::to_string(m.duplicates), std::to_string(m.gated),
            std::to_string(m.pulls),    std::to_string(m.push_bytes),
            std::to_string(m.pull_bytes),
            std::to_string(m.max_staleness())};
        if (opt.sparse) {
            row.push_back(std::to_string(m.sparse_nnz));
            row.push_back(std::to_string(m.sparse_bytes));
        }
        table.add_row(std::move(row));
    }
    table.print(std::cout);
    if (opt.csv) table.print_csv(std::cout);

    if (!opt.save_path.empty()) {
        const core::SavedModel saved =
            ps::make_cluster_checkpoint(opt.cluster, model, opt.sparse);
        core::save_model_file(saved, opt.save_path);
        std::printf("saved %s (%s) to %s\n", opt.cluster.codec.name().c_str(),
                    saved.signature.to_string().c_str(),
                    opt.save_path.c_str());
    }

    control.shutdown();
    std::printf("control: %zu shards shut down (%llu rpc retries)\n",
                shards.size(),
                static_cast<unsigned long long>(control.retries()));
    session.finish();
    return 0;
}

template <typename Problem>
int
dispatch(const Options& opt, const Problem& problem)
{
    switch (opt.mode) {
    case Mode::kSweep:
    case Mode::kSpawn: return run_sweep(opt, problem);
    case Mode::kShard: return run_shard(opt, problem);
    case Mode::kWorker: return run_worker(opt, problem);
    case Mode::kControl: return run_control(opt, problem);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        Options opt;
        cli(opt).parse_or_exit(argc, argv);
        check(opt);
        opt.cluster.codec = opt.codecs.front();
        if (opt.sparse) {
            const auto problem =
                opt.libsvm_path.empty()
                    ? dataset::generate_logistic_sparse(
                          opt.dim, opt.examples, opt.density, opt.seed)
                    : dataset::load_libsvm_file(opt.libsvm_path);
            // A loaded file decides its own geometry; the hand-assembled
            // multi-process roles size shards and rooflines off opt.dim,
            // so it must agree with the data in every process.
            opt.dim = problem.dim;
            opt.examples = problem.examples();
            return dispatch(opt, problem);
        }
        const auto problem =
            dataset::generate_logistic_dense(opt.dim, opt.examples, opt.seed);
        return dispatch(opt, problem);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
