/**
 * @file
 * buckwild_train — command-line trainer.
 *
 * Train asynchronous low-precision SGD from a shell, on synthetic data or
 * a LIBSVM file, with every DMGC/optimization knob exposed:
 *
 *     buckwild_train --dense 4096 10000 --signature D8M8 --threads 4
 *     buckwild_train --libsvm data.svm --signature D8i16M8 --epochs 20 \
 *                    --save model.bw
 *     buckwild_train --dense 2048 5000 --advise
 *
 * Run with --help for the full flag list.
 */
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "buckwild/buckwild.h"
#include "core/model_io.h"
#include "dataset/libsvm.h"
#include "dmgc/advisor.h"
#include "obs_cli.h"
#include "util/table.h"

namespace {

using namespace buckwild;

struct Options
{
    enum class Source { kNone, kDense, kSparse, kLibsvm } source =
        Source::kNone;
    std::size_t dim = 0, examples = 0;
    double density = 0.03;
    std::string libsvm_path;
    std::size_t libsvm_dim = 0;

    std::optional<dmgc::Signature> signature;
    core::TrainerConfig cfg = [] {
        core::TrainerConfig cfg;
        cfg.epochs = 10;
        cfg.step_size = 0.15f;
        return cfg;
    }();
    std::optional<std::string> save_path;
    bool advise = false;
    bool quiet = false;
    tools::ObsCliOptions obs;
};

tools::flags::Table
cli(Options& opt)
{
    namespace flags = tools::flags;
    using Source = Options::Source;
    flags::Table t("buckwild_train — asynchronous low-precision SGD "
                   "(Buckwild!)");

    t.section("data source (choose one):");
    t.flag({"--dense"}, "N M", "synthetic dense logistic problem",
           flags::count(opt.dim), flags::set(opt.source, Source::kDense))
        .value(flags::count(opt.examples));
    t.flag({"--sparse"}, "N M DENSITY", "synthetic sparse logistic problem",
           flags::count(opt.dim), flags::set(opt.source, Source::kSparse))
        .value(flags::count(opt.examples))
        .value(flags::real(opt.density));
    t.flag({"--libsvm"}, "PATH [DIM]", "LIBSVM-format file (sparse)",
           flags::text(opt.libsvm_path),
           flags::set(opt.source, Source::kLibsvm))
        .optional(flags::count(opt.libsvm_dim));

    core::TrainerConfig& c = opt.cfg;
    t.section("training:");
    t.flag({"--signature"}, "SIG", "DMGC signature (default D8M8 / D8i16M8)",
           flags::parsed(opt.signature, dmgc::parse_signature));
    t.flag({"--loss"}, "L", "logistic | squared | hinge",
           flags::choice(c.loss, {{"logistic", core::Loss::kLogistic},
                                  {"squared", core::Loss::kSquared},
                                  {"hinge", core::Loss::kHinge}}));
    t.flag({"--threads"}, "T", "Hogwild! workers (default 1)",
           flags::count(c.threads));
    t.flag({"--epochs"}, "E", "(default 10)", flags::count(c.epochs));
    t.flag({"--eta"}, "S", "step size (default 0.15)",
           flags::real(c.step_size));
    t.flag({"--decay"}, "D", "per-epoch step decay (default 0.95)",
           flags::real(c.step_decay));
    t.flag({"--batch"}, "B", "mini-batch size (default 1)",
           flags::count(c.batch_size));
    t.flag({"--rounding"}, "R", "biased | mersenne | xorshift | shared",
           flags::choice(
               c.rounding,
               {{"biased", core::RoundingStrategy::kBiased},
                {"mersenne", core::RoundingStrategy::kMersennePerWrite},
                {"xorshift", core::RoundingStrategy::kXorshiftPerWrite},
                {"shared", core::RoundingStrategy::kSharedXorshift}}));
    t.flag({"--impl"}, "I", "reference | naive | avx2 | fma | avx512 "
           "(default: fastest supported; the BUCKWILD_KERNEL_IMPL env var "
           "overrides)", flags::parsed(c.impl, simd::parse_impl));
    t.flag({"--shuffle"}, "shuffle example order per epoch",
           flags::set(c.shuffle, true));
    t.flag({"--seed"}, "X", "RNG seed, decimal (default 24301 = 0x5EED)",
           flags::count(c.seed));

    t.section("outputs:");
    t.flag({"--save"}, "PATH", "write the trained model",
           flags::text(opt.save_path));
    t.flag({"--advise"}, "print DMGC-advisor recommendations",
           flags::set(opt.advise, true));
    t.flag({"--quiet"}, "suppress the per-epoch loss trace",
           flags::set(opt.quiet, true));

    t.section("observability:");
    tools::add_obs_flags(t, opt.obs);
    return t;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    try {
        cli(opt).parse_or_exit(argc, argv);
        if (opt.source == Options::Source::kNone)
            tools::flags::usage_error(
                "no data source given (--dense / --sparse / --libsvm)");
        const bool sparse = opt.source != Options::Source::kDense;
        opt.cfg.signature = opt.signature.value_or(
            dmgc::parse_signature(sparse ? "D8i16M8" : "D8M8"));

        core::Trainer trainer(opt.cfg);
        core::TrainingMetrics metrics;
        std::size_t model_dim = 0;
        // The live tier is started once the data (and so the model
        // dimension the roofline prediction needs) is known, but before
        // training begins, so the sampler sees every epoch.
        std::unique_ptr<tools::ObsSession> session;
        auto begin_obs = [&](std::size_t dim) {
            tools::ObsSession::Workload workload;
            workload.signature = opt.cfg.signature;
            workload.threads = std::max<std::size_t>(opt.cfg.threads, 1);
            workload.model_size = dim;
            workload.numbers_gauge = "train.numbers";
            workload.seconds_gauge = "train.seconds";
            workload.process = "train";
            session =
                std::make_unique<tools::ObsSession>(opt.obs, workload);
        };
        if (opt.source == Options::Source::kDense) {
            const auto p = dataset::generate_logistic_dense(
                opt.dim, opt.examples, opt.cfg.seed);
            model_dim = p.dim;
            begin_obs(model_dim);
            metrics = trainer.fit(p);
        } else if (opt.source == Options::Source::kSparse) {
            const auto p = dataset::generate_logistic_sparse(
                opt.dim, opt.examples, opt.density, opt.cfg.seed);
            model_dim = p.dim;
            begin_obs(model_dim);
            metrics = trainer.fit(p);
        } else {
            const auto p = dataset::load_libsvm_file(opt.libsvm_path,
                                                     opt.libsvm_dim);
            model_dim = p.dim;
            begin_obs(model_dim);
            metrics = trainer.fit(p);
        }
        metrics.publish(obs::MetricsRegistry::global(), "train.");

        if (!opt.quiet) {
            std::printf("epoch losses:");
            for (double l : metrics.loss_trace) std::printf(" %.4f", l);
            std::printf("\n");
        }
        std::printf("signature %s | kernels %s | loss %.4f | "
                    "accuracy %.4f | %.3f GNPS | %.2fs\n",
                    opt.cfg.signature.to_string().c_str(),
                    simd::to_string(opt.cfg.impl), metrics.final_loss,
                    metrics.accuracy, metrics.gnps(),
                    metrics.train_seconds);

        if (opt.save_path) {
            core::SavedModel model;
            model.signature = opt.cfg.signature;
            model.loss = opt.cfg.loss;
            model.weights = trainer.model();
            core::save_model_file(model, *opt.save_path);
            std::printf("model saved to %s\n", opt.save_path->c_str());
        }
        if (opt.advise) {
            dmgc::AdvisorQuery query;
            query.signature = opt.cfg.signature;
            query.model_size = model_dim;
            query.threads = std::max<std::size_t>(opt.cfg.threads, 1);
            query.unbiased_rounding =
                opt.cfg.rounding != core::RoundingStrategy::kBiased;
            const auto advice =
                advise(query, dmgc::PerfModel::paper_model());
            std::printf("\nadvisor: regime %s, p(n) = %.3f\n",
                        to_string(advice.regime).c_str(),
                        advice.parallel_fraction);
            for (const auto& r : advice.recommendations)
                std::printf("  - %s\n      (%s; stat. eff.: %s)\n",
                            r.action.c_str(), r.rationale.c_str(),
                            r.stat_eff_cost.c_str());
        }
        session->finish();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
