/**
 * @file
 * hogwild_dense — the paper's own object (Table 2, Fig. 3): core::Trainer
 * at D8M8 with shared-randomness rounding, four Hogwild! threads, batch 1,
 * on dense rows few enough to stay cache-resident. All of its time is in
 * the simd dense dot/AXPY kernels, lowp dithered writes and cache-line
 * sharing between the threads; no ps, net, serve or gate code runs, so a
 * cluster or gate change must read flat here.
 */
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.h"
#include "core/engine.h"
#include "core/trainer.h"
#include "dataset/problem.h"
#include "dataset/quantized.h"
#include "lowp/grid.h"
#include "lowp/rep_traits.h"
#include "lowp/round.h"
#include "lowp/shared_random.h"
#include "obs/trace.h"
#include "simd/ops.h"

namespace perfbench {

namespace {

namespace core = buckwild::core;
namespace dataset = buckwild::dataset;
namespace lowp = buckwild::lowp;
namespace simd = buckwild::simd;

// 512 rows x 16 KiB of D8 data: each thread sweeps 128 rows (2 MiB), so
// the rows stay in its L2. Four threads on smaller models (512-2048
// coordinates) ping-pong model cache lines and do not repeat.
constexpr std::size_t kDim = 16384;
constexpr std::size_t kRows = 512;
constexpr std::size_t kEpochs = 20;
// With 16 Ki coordinates and a few hundred rows every row is fitted
// after its first visit. At the default step (0.2) margins then grow
// until the logistic gradient underflows to exactly 0, the AXPY is
// skipped for nearly every step and the loss falls to 1e-11..1e-5,
// differing by orders of magnitude between row sets. At 0.02 margins
// stay moderate, most steps run both kernels, and the loss settles near
// 1.5e-3.
constexpr float kStepSize = 0.02f;
constexpr std::size_t kThreads = 4;
constexpr int kSetupReps = 9;
// The benchmark recomputes the loss on the same D8 rows the program
// scores, in double; the program's margins and losses are float. The two
// differed by at most 3.5e-8 of the loss over seeds 1-5.
constexpr double kLossTolerance = 1e-6;

core::TrainerConfig
trainer_config(std::uint64_t seed, std::size_t threads)
{
    core::TrainerConfig cfg;
    cfg.signature = buckwild::dmgc::Signature::dense_fixed(8, 8);
    cfg.rounding = core::RoundingStrategy::kSharedXorshift;
    cfg.threads = threads;
    cfg.batch_size = 1;
    cfg.epochs = kEpochs;
    cfg.step_size = kStepSize;
    cfg.record_loss_trace = false;
    cfg.seed = seed;
    return cfg;
}

/// The rows of fit job `job`. Every job draws fresh rows from its own
/// seed: the training loss and the share of zero-gradient steps vary
/// between row sets, and a run's medians average that out.
dataset::DenseProblem
job_problem(std::uint64_t seed, std::size_t job)
{
    return dataset::generate_logistic_dense(kDim, kRows,
                                            seed * 1000003u + job);
}

/// Mean logistic loss of `weights` over the D8 rows the program trains on
/// and scores: each float row quantized the way DenseData quantizes it,
/// then dotted with the weights in double and dequantized.
double
loss_on_d8_rows(const std::vector<float>& weights,
                const dataset::DenseProblem& problem)
{
    const auto format = lowp::rep_default_format<std::int8_t>();
    const lowp::GridSpec grid = lowp::GridSpec::from_fixed(format);
    const double quantum = lowp::rep_quantum<std::int8_t>(format);
    std::vector<std::int8_t> row(problem.dim);
    double total = 0.0;
    for (std::size_t i = 0; i < problem.examples; ++i) {
        lowp::quantize_biased(problem.row(i), row.data(), problem.dim, grid);
        double z = 0.0;
        for (std::size_t k = 0; k < problem.dim; ++k)
            z += static_cast<double>(weights[k]) * row[k];
        total += logistic_loss(z * quantum, problem.y[i]);
    }
    return total / static_cast<double>(problem.examples);
}

/// Totals of a sequence of fixed-work Trainer::fit jobs.
struct Phase
{
    double examples = 0.0;
    double train_s = 0.0; ///< summed program-reported update-loop time
    std::vector<double> job_s;
    std::vector<double> job_cpu_s;
    std::vector<double> losses;
    double max_loss_gap = 0.0; ///< largest relative loss disagreement
    /// Peak resident set once the first job has finished: set-up plus one
    /// fit. Later jobs repeat the same work, but each lands its 8 MiB row
    /// set in whichever freed heap hole fits, and the holes it leaves stay
    /// resident, so the process peak grows with the heap layout.
    double first_job_rss_mb = 0.0;

    /// Medians over the jobs: a job whose threads lost their cores to
    /// another process moves a mean, not the median.
    double
    ops_per_s() const
    {
        std::vector<double> rates;
        for (double s : job_s)
            rates.push_back(static_cast<double>(kEpochs * kRows) / s);
        return median(rates);
    }
    double
    cpu_per_op() const
    {
        return median(job_cpu_s) / static_cast<double>(kEpochs * kRows);
    }
};

/// Runs fit jobs until `seconds` have passed (at least three), checking
/// every returned model.
Phase
train_for(std::uint64_t seed, const core::TrainerConfig& cfg, double seconds,
          const Options& options, Report& report)
{
    Phase phase;
    const double examples = static_cast<double>(cfg.epochs * kRows);
    const double stop = now_s() + seconds;
    while (now_s() < stop || phase.job_s.size() < 3) {
        const dataset::DenseProblem problem =
            job_problem(seed, phase.job_s.size());
        core::Trainer trainer(cfg);
        const double cpu0 = process_cpu_s();
        const double t0 = now_s();
        core::TrainingMetrics m;
        {
            obs::ScopedSpan span("bench", "Trainer::fit");
            m = trainer.fit(problem);
        }
        const double dt = now_s() - t0;
        phase.job_cpu_s.push_back(process_cpu_s() - cpu0);
        phase.train_s += m.train_seconds;
        phase.job_s.push_back(dt);
        phase.examples += examples;

        std::vector<float> model = trainer.model();
        if (options.inject == "nonfinite_model")
            model[0] = std::numeric_limits<float>::quiet_NaN();
        const double loss = loss_on_d8_rows(model, problem);
        phase.losses.push_back(loss);
        const std::size_t failures_before = report.failures().size();
        phase.max_loss_gap =
            std::max(phase.max_loss_gap,
                     check_train_loss(report, loss, m.final_loss,
                                      kLossTolerance));
        report.check(m.epochs == cfg.epochs &&
                         m.numbers_processed ==
                             examples * static_cast<double>(problem.dim),
                     "fit did not process the configured epochs x rows");
        const bool failed = report.failures().size() != failures_before;
        report.count(static_cast<std::uint64_t>(examples),
                     failed ? static_cast<std::uint64_t>(examples) : 0);
        if (phase.job_s.size() == 1) phase.first_job_rss_mb = peak_rss_mb();
        if (failed) break; // one bad model is enough to fail the run
    }
    return phase;
}

/// Median seconds of the set-up Trainer::fit performs before training:
/// D8 quantization of the rows and the engine's model allocation.
double
setup_seconds(const dataset::DenseProblem& problem,
              const core::TrainerConfig& cfg, double* quantize_s,
              double* bytes_per_example)
{
    std::vector<double> setup, quantize;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        // Each set-up starts cold, with no freed heap pages resident, as
        // in a fresh process. Otherwise the reps grew the resident heap by
        // 3-5 freed 8 MiB row sets (an aligned row set rarely fits the
        // hole the last one left), how many depending on where earlier
        // small allocations sat (even the length of --out-dir changed
        // it), and the median rep ran warm or cold with it.
        malloc_trim(0);
        const double t0 = now_s();
        dataset::DenseData<std::int8_t> data(
            problem, lowp::rep_default_format<std::int8_t>());
        const double t1 = now_s();
        core::DenseEngine<std::int8_t, std::int8_t> engine(data, cfg);
        setup.push_back(now_s() - t0);
        quantize.push_back(t1 - t0);
        *bytes_per_example = static_cast<double>(data.bytes()) /
                             static_cast<double>(data.rows());
    }
    if (quantize_s != nullptr) *quantize_s = median(quantize);
    return median(setup);
}

/// Timed replays of the two kernels one Hogwild! step calls, over the
/// workload's quantized rows on one warm thread. Returns seconds per
/// row for dot and AXPY.
void
replay_kernels(const dataset::DenseProblem& problem, double seconds,
               double* dot_s_per_row, double* axpy_s_per_row)
{
    using Ops = simd::DenseOps<std::int8_t, std::int8_t>;
    const dataset::DenseData<std::int8_t> data(
        problem, lowp::rep_default_format<std::int8_t>());
    const float qx = data.quantum();
    const float qm = lowp::rep_default_quantum<std::int8_t>();
    const simd::Impl impl = simd::best_impl();
    std::vector<std::int8_t> w(kDim, 0);
    float sink = 0.0f;
    {
        obs::ScopedSpan span("bench", "replay.simd.dense_dot");
        *dot_s_per_row = time_per_call(seconds, [&] {
            for (std::size_t i = 0; i < data.rows(); ++i)
                sink += Ops::dot(impl, data.row(i), w.data(), kDim, qx, qm);
        }) / static_cast<double>(data.rows());
    }
    // Shared-randomness rounding: one fresh 256-bit dither block per
    // AXPY, as the engine's kSharedXorshift strategy draws it.
    buckwild::lowp::SharedRandom shared(1, 1);
    simd::DitherBlock block{};
    {
        obs::ScopedSpan span("bench", "replay.simd.dense_axpy");
        *axpy_s_per_row = time_per_call(seconds, [&] {
            for (std::size_t i = 0; i < data.rows(); ++i) {
                shared.tick();
                std::memcpy(block.bytes, shared.words(), sizeof block.bytes);
                Ops::axpy(impl, w.data(), data.row(i), kDim,
                          i % 2 ? 0.05f : -0.05f, qx, qm, block);
            }
        }) / static_cast<double>(data.rows());
    }
    do_not_optimize(sink);
}

} // namespace

void
run_hogwild_dense(const Options& options, Report& report)
{
    const core::TrainerConfig cfg = trainer_config(options.seed, kThreads);

    if (!options.trace) {
        double bytes_per_example = 0.0;
        report.set("setup_s", setup_seconds(job_problem(options.seed, 0), cfg,
                                            nullptr, &bytes_per_example));
        const Phase phase =
            train_for(options.seed, cfg, options.seconds, options, report);
        report.set("ops_per_s", phase.ops_per_s());
        report.set("cpu_us_per_op", phase.cpu_per_op() * 1e6);
        report.set("model_loss", median(phase.losses));
        // No fabric: the bytes this workload moves per example are the
        // stored D8 row the kernels stream (DenseData::bytes, the paper's
        // DRAM-traffic figure of merit).
        report.set("bytes_per_op", bytes_per_example);
        report.set("peak_rss_mb", phase.first_job_rss_mb);
        report.set("latency_p50_us", percentile(phase.job_s, 50.0) * 1e6);
        report.set("latency_p90_us", percentile(phase.job_s, 90.0) * 1e6);
        report.set("ok_frac", 1.0 - static_cast<double>(report.failed()) /
                                        static_cast<double>(report.attempted()));
        char gap[32];
        std::snprintf(gap, sizeof gap, "%.2e", phase.max_loss_gap);
        report.note("hogwild_dense: " + std::to_string(phase.job_s.size()) +
                    " fit jobs of " + std::to_string(kEpochs) + " epochs x " +
                    std::to_string(kRows) + " rows x " +
                    std::to_string(kDim) + " coordinates, " +
                    std::to_string(kThreads) + " threads; largest relative "
                    "train-loss gap to the program's " + gap);
        return;
    }

    const dataset::DenseProblem problem = job_problem(options.seed, 0);
    const Phase untraced =
        train_for(options.seed, cfg, options.seconds * 0.3, options, report);
    TraceSession session;
    const Phase traced =
        train_for(options.seed, cfg, options.seconds * 0.3, options, report);
    double quantize_s = 0.0, bytes_per_example = 0.0;
    {
        obs::ScopedSpan span("bench", "replay.dataset.quantize");
        setup_seconds(problem, cfg, &quantize_s, &bytes_per_example);
    }
    double dot_s = 0.0, axpy_s = 0.0;
    replay_kernels(problem, options.seconds * 0.05, &dot_s, &axpy_s);
    double four_s = 0.0, one_s = 0.0;
    {
        // Thread scaling needs the vCPUs the rest of the run is kept off:
        // the same rows and work through Trainer on 4 threads and on 1.
        const AllCpus all;
        for (const std::size_t threads : {kThreads, std::size_t{1}}) {
            core::Trainer trainer(trainer_config(options.seed, threads));
            obs::ScopedSpan span("bench", "Trainer::fit");
            const double t0 = now_s();
            trainer.fit(problem);
            (threads == 1 ? one_s : four_s) = now_s() - t0;
        }
    }
    session.finish(options, report);

    report.set("obs.trace_overhead",
               1.0 - traced.ops_per_s() / untraced.ops_per_s());
    report.set("dataset.quantize_s", quantize_s);
    report.set("simd.dense_dot_gnps", static_cast<double>(kDim) / dot_s / 1e9);
    report.set("simd.dense_axpy_gnps",
               static_cast<double>(kDim) / axpy_s / 1e9);
    // The share of the update loop's time the two kernels explain; the
    // rest is thread start-up, switching and rounding. The run holds one
    // vCPU, so the loop's wall time is the time its threads had.
    report.set("core.kernel_share",
               (dot_s + axpy_s) * untraced.examples / untraced.train_s);
    report.set("core.thread_speedup", one_s / four_s);
}

} // namespace perfbench
