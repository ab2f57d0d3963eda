/**
 * @file
 * Tests for the core SGD engine and Trainer facade.
 *
 * Statistical-efficiency properties from the paper that the engine must
 * reproduce:
 *  - full-precision SGD converges on a well-conditioned logistic problem;
 *  - low-precision (D8M8 .. D16M16) converges to comparable loss;
 *  - Hogwild! (multi-threaded, no locks) converges like sequential;
 *  - unbiased rounding beats biased rounding at low model precision;
 *  - mini-batching trades statistical efficiency in a loss-visible way
 *    only at large B.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "buckwild/buckwild.h"
#include "test_common.h"

namespace buckwild::core {
namespace {

using dataset::generate_logistic_dense;
using dataset::generate_logistic_sparse;

/// A small, well-conditioned dense logistic problem.
const dataset::DenseProblem&
dense_problem()
{
    static const auto kProblem = generate_logistic_dense(64, 2000, 4242);
    return kProblem;
}

const dataset::SparseProblem&
sparse_problem()
{
    static const auto kProblem =
        generate_logistic_sparse(512, 2000, 0.05, 4243);
    return kProblem;
}

TrainerConfig
base_config()
{
    TrainerConfig cfg;
    cfg.epochs = 15;
    cfg.step_size = 0.15f;
    cfg.step_decay = 0.9f;
    cfg.record_loss_trace = true;
    return cfg;
}

// ----------------------------------------------------------------- losses

TEST(LossFunctions, ValuesAndGradients)
{
    // Logistic at z=0: loss ln2, gradient -y/2.
    EXPECT_NEAR(loss_value(Loss::kLogistic, 0.0f, 1.0f), std::log(2.0f),
                1e-6);
    EXPECT_NEAR(loss_gradient_coefficient(Loss::kLogistic, 0.0f, 1.0f),
                -0.5f, 1e-6);
    EXPECT_NEAR(loss_gradient_coefficient(Loss::kLogistic, 0.0f, -1.0f),
                0.5f, 1e-6);
    // Large correct margin: loss ~ 0; large wrong margin ~ |m|.
    EXPECT_NEAR(loss_value(Loss::kLogistic, 30.0f, 1.0f), 0.0f, 1e-6);
    EXPECT_NEAR(loss_value(Loss::kLogistic, -30.0f, 1.0f), 30.0f, 1e-4);

    // Squared.
    EXPECT_FLOAT_EQ(loss_value(Loss::kSquared, 2.0f, 1.0f), 0.5f);
    EXPECT_FLOAT_EQ(loss_gradient_coefficient(Loss::kSquared, 2.0f, 1.0f),
                    1.0f);

    // Hinge: active inside the margin, zero outside.
    EXPECT_FLOAT_EQ(loss_value(Loss::kHinge, 0.5f, 1.0f), 0.5f);
    EXPECT_FLOAT_EQ(loss_gradient_coefficient(Loss::kHinge, 0.5f, 1.0f),
                    -1.0f);
    EXPECT_FLOAT_EQ(loss_gradient_coefficient(Loss::kHinge, 2.0f, 1.0f),
                    0.0f);
    EXPECT_FLOAT_EQ(loss_value(Loss::kHinge, 2.0f, 1.0f), 0.0f);

    EXPECT_TRUE(loss_correct(Loss::kLogistic, 0.3f, 1.0f));
    EXPECT_FALSE(loss_correct(Loss::kLogistic, -0.3f, 1.0f));
    EXPECT_TRUE(loss_correct(Loss::kSquared, 0.8f, 1.0f));
    EXPECT_FALSE(loss_correct(Loss::kSquared, 0.0f, 1.0f));

    EXPECT_EQ(to_string(Loss::kLogistic), "logistic");
    EXPECT_EQ(to_string(Loss::kSquared), "squared");
    EXPECT_EQ(to_string(Loss::kHinge), "hinge");
}

// ----------------------------------------------- convergence, full + low

class DensePrecisionConvergence
    : public ::testing::TestWithParam<const char*>
{};

TEST_P(DensePrecisionConvergence, ReachesLowLossAndHighAccuracy)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature(GetParam());
    Trainer trainer(cfg);
    const auto metrics = trainer.fit(dense_problem());
    // Initial loss is ln 2 ~ 0.693; a successful run roughly halves it and
    // classifies most examples.
    EXPECT_LT(metrics.final_loss, 0.50) << GetParam();
    EXPECT_GT(metrics.accuracy, 0.78) << GetParam();
    // Loss trace is (weakly) decreasing overall.
    ASSERT_FALSE(metrics.loss_trace.empty());
    EXPECT_LT(metrics.loss_trace.back(), metrics.loss_trace.front());
    EXPECT_GT(metrics.gnps(), 0.0);
    EXPECT_EQ(metrics.numbers_processed,
              static_cast<double>(cfg.epochs) * 2000.0 * 64.0);
}

INSTANTIATE_TEST_SUITE_P(AllTable2Signatures, DensePrecisionConvergence,
                         ::testing::Values("D32fM32f", "D8M8", "D8M16",
                                           "D16M8", "D16M16", "D8M32f",
                                           "D16M32f", "D32fM8", "D32fM16"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

class SparsePrecisionConvergence
    : public ::testing::TestWithParam<const char*>
{};

TEST_P(SparsePrecisionConvergence, ReachesLowLoss)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature(GetParam());
    cfg.epochs = 20;
    Trainer trainer(cfg);
    const auto metrics = trainer.fit(sparse_problem());
    EXPECT_LT(metrics.final_loss, 0.5) << GetParam();
    EXPECT_GT(metrics.accuracy, 0.78) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SparseSignatures, SparsePrecisionConvergence,
                         ::testing::Values("D32fi32M32f", "D8i8M8",
                                           "D8i16M16", "D16i16M8",
                                           "D8i8M32f", "D16i32M16"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

// --------------------------------------------------------------- hogwild

TEST(Hogwild, MultiThreadedConvergesLikeSequential)
{
    TrainerConfig seq = base_config();
    seq.signature = dmgc::parse_signature("D8M8");
    Trainer t1(seq);
    const auto m1 = t1.fit(dense_problem());

    TrainerConfig par = seq;
    par.threads = 4;
    Trainer t4(par);
    const auto m4 = t4.fit(dense_problem());

    EXPECT_LT(m4.final_loss, m1.final_loss + 0.05)
        << "Hogwild! races must not materially hurt convergence";
    EXPECT_GT(m4.accuracy, m1.accuracy - 0.05);
}

TEST(Hogwild, SparseMultiThreaded)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8i16M8");
    cfg.threads = 4;
    cfg.epochs = 20;
    Trainer trainer(cfg);
    const auto m = trainer.fit(sparse_problem());
    EXPECT_LT(m.final_loss, 0.5);
}

// ------------------------------------------------------ rounding effects

TEST(Rounding, UnbiasedBeatsBiasedAtEightBits)
{
    // The signature effect of §5.2/Fig 5a: with an 8-bit model and a small
    // step size, biased rounding stalls (every per-element update is below
    // half a model quantum, so nearest rounding freezes the model at w=0)
    // while unbiased rounding keeps making progress in expectation. The
    // float-dataset signature keeps the coefficient at full resolution so
    // the stall is purely a model-rounding effect.
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D32fM8");
    cfg.step_size = 0.01f;
    cfg.step_decay = 1.0f;
    cfg.epochs = 20;

    cfg.rounding = RoundingStrategy::kBiased;
    Trainer biased(cfg);
    const auto mb = biased.fit(dense_problem());

    cfg.rounding = RoundingStrategy::kSharedXorshift;
    Trainer unbiased(cfg);
    const auto mu = unbiased.fit(dense_problem());

    EXPECT_NEAR(mb.final_loss, std::log(2.0), 1e-3)
        << "biased rounding should freeze the model at w = 0";
    EXPECT_LT(mu.final_loss, mb.final_loss - 0.01)
        << "biased=" << mb.final_loss << " unbiased=" << mu.final_loss;
}

TEST(Rounding, AllUnbiasedStrategiesConvergeSimilarly)
{
    // Fig 5a: Mersenne, fresh XORSHIFT, and shared XORSHIFT rounding have
    // nearly identical statistical efficiency.
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    cfg.epochs = 12;
    double losses[3];
    const RoundingStrategy strategies[3] = {
        RoundingStrategy::kMersennePerWrite,
        RoundingStrategy::kXorshiftPerWrite,
        RoundingStrategy::kSharedXorshift};
    for (int s = 0; s < 3; ++s) {
        cfg.rounding = strategies[s];
        Trainer t(cfg);
        losses[s] = t.fit(dense_problem()).final_loss;
    }
    EXPECT_NEAR(losses[0], losses[1], 0.06);
    EXPECT_NEAR(losses[0], losses[2], 0.06);
    EXPECT_LT(losses[2], 0.50);
}

TEST(Rounding, SparsePerWriteRoundingNeedsAFloatModel)
{
    // Sparse rows round a fixed-point model from one dither block per
    // AXPY; a per-write strategy is refused, naming it, not swapped for
    // the shared block. A float model has nothing to round.
    TrainerConfig cfg = base_config();
    cfg.epochs = 2;
    for (const RoundingStrategy strategy :
         {RoundingStrategy::kMersennePerWrite,
          RoundingStrategy::kXorshiftPerWrite}) {
        cfg.rounding = strategy;
        cfg.signature = dmgc::parse_signature("D8i16M8");
        Trainer fixed_model(cfg);
        try {
            fixed_model.fit(sparse_problem());
            ADD_FAILURE() << to_string(strategy) << " was not refused";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(to_string(strategy)),
                      std::string::npos)
                << e.what();
        }
        cfg.signature = dmgc::parse_signature("D32fi32M32f");
        Trainer float_model(cfg);
        EXPECT_LT(float_model.fit(sparse_problem()).final_loss, 0.69)
            << to_string(strategy);
    }
}

TEST(Rounding, SharedRefreshPeriodTradesOff)
{
    // Refreshing the shared draw less often must still converge (it stays
    // unbiased per element) — the §5.2 smooth trade-off.
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    cfg.rounding = RoundingStrategy::kSharedXorshift;
    cfg.shared_refresh_iters = 16;
    Trainer t(cfg);
    EXPECT_LT(t.fit(dense_problem()).final_loss, 0.56);
}

// ------------------------------------------------------------ mini-batch

TEST(MiniBatch, SmallBatchesMatchPlainSgd)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    cfg.epochs = 15;

    Trainer plain(cfg);
    const auto mp = plain.fit(dense_problem());

    cfg.batch_size = 8;
    cfg.step_size = 0.15f;
    Trainer batched(cfg);
    const auto mb = batched.fit(dense_problem());

    EXPECT_LT(mb.final_loss, mp.final_loss + 0.08);
}

TEST(MiniBatch, VeryLargeBatchDegradesStatisticalEfficiency)
{
    // Fig 6e: with the same number of examples processed, huge batches
    // make fewer model updates and converge more slowly.
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    cfg.epochs = 4;
    Trainer plain(cfg);
    const auto mp = plain.fit(dense_problem());

    cfg.batch_size = 1000;
    Trainer batched(cfg);
    const auto mb = batched.fit(dense_problem());
    EXPECT_GT(mb.final_loss, mp.final_loss);
}

TEST(MiniBatch, SparseEngineRejectsBatching)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8i16M8");
    cfg.batch_size = 4;
    Trainer t(cfg);
    EXPECT_THROW(t.fit(sparse_problem()), std::runtime_error);
}

// ------------------------------------------------------------ G term

TEST(GradientPrecision, G10TrainsLikeFullPrecision)
{
    // Courbariaux et al. [9]: 10-bit multipliers (intermediates) suffice.
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D32fM32fG10");
    Trainer g10(cfg);
    const auto mg = g10.fit(dense_problem());

    cfg.signature = dmgc::parse_signature("D32fM32f");
    Trainer full(cfg);
    const auto mf = full.fit(dense_problem());
    EXPECT_NEAR(mg.final_loss, mf.final_loss, 0.05);
    EXPECT_GT(mg.accuracy, 0.78);
}

TEST(GradientPrecision, VeryCoarseGradientsDegrade)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("G3");
    Trainer coarse(cfg);
    const auto mc = coarse.fit(dense_problem());
    cfg.signature = dmgc::parse_signature("D32fM32f");
    Trainer full(cfg);
    const auto mf = full.fit(dense_problem());
    EXPECT_GT(mc.final_loss, mf.final_loss)
        << "3-bit intermediates must lose something";
}

TEST(GradientPrecision, FloatGTermIsIgnored)
{
    // A G32f term means "no fidelity lost" — identical to no G term.
    TrainerConfig cfg = base_config();
    cfg.epochs = 4;
    cfg.signature = dmgc::parse_signature("D8M8G32f");
    Trainer a(cfg);
    const auto ma = a.fit(dense_problem());
    cfg.signature = dmgc::parse_signature("D8M8");
    Trainer b(cfg);
    const auto mb = b.fit(dense_problem());
    EXPECT_EQ(ma.final_loss, mb.final_loss);
}

TEST(GradientPrecision, SparseRowsHonourTheGTerm)
{
    TrainerConfig cfg = base_config();
    cfg.epochs = 4;
    cfg.signature = dmgc::parse_signature("D8i16M8G4");
    Trainer g4(cfg);
    const auto mg = g4.fit(sparse_problem());
    cfg.signature = dmgc::parse_signature("D8i16M8");
    Trainer full(cfg);
    const auto mf = full.fit(sparse_problem());
    EXPECT_NE(mg.loss_trace, mf.loss_trace)
        << "4-bit intermediates must change what a sparse fit computes";
}

TEST(GradientPrecision, RejectsDegenerateWidth)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("G1");
    Trainer t(cfg);
    EXPECT_THROW(t.fit(dense_problem()), std::runtime_error);
}

// ---------------------------------------------------------- other losses

TEST(OtherLosses, HingeSvmTrains)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M16");
    cfg.loss = Loss::kHinge;
    cfg.step_size = 0.3f;
    Trainer t(cfg);
    const auto m = t.fit(dense_problem());
    EXPECT_GT(m.accuracy, 0.75);
}

TEST(OtherLosses, SquaredLossLinearRegression)
{
    // Regress y = w.x directly (labels ±1 still work as targets).
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D16M16");
    cfg.loss = Loss::kSquared;
    cfg.step_size = 0.1f;
    Trainer t(cfg);
    const auto m = t.fit(dense_problem());
    EXPECT_LT(m.final_loss, 0.5); // below the trivial w=0 loss of 0.5
}

// ----------------------------------------------------- kernel impl parity

TEST(ImplParity, ReferenceNaiveAvx2ReachSimilarLoss)
{
    double losses[3];
    const simd::Impl impls[3] = {simd::Impl::kReference, simd::Impl::kNaive,
                                 simd::Impl::kAvx2};
    for (int k = 0; k < 3; ++k) {
        TrainerConfig cfg = base_config();
        cfg.signature = dmgc::parse_signature("D8M8");
        cfg.impl = impls[k];
        cfg.epochs = 10;
        Trainer t(cfg);
        losses[k] = t.fit(dense_problem()).final_loss;
    }
    EXPECT_NEAR(losses[0], losses[2], 1e-9)
        << "reference and AVX2 are bit-identical, so whole training runs "
           "must agree exactly";
    EXPECT_NEAR(losses[0], losses[1], 0.05);
}

// ----------------------------------------------------------- trainer API

TEST(TrainerApi, ModelAccessAndPrediction)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    Trainer t(cfg);
    EXPECT_TRUE(t.model().empty());
    EXPECT_THROW(t.loss(), std::logic_error);
    t.fit(dense_problem());
    const auto w = t.model();
    ASSERT_EQ(w.size(), dense_problem().dim);

    // The float model should predict held-out-style examples consistently
    // with the trainer's own accuracy computation.
    std::size_t correct = 0;
    for (std::size_t i = 0; i < dense_problem().examples; ++i) {
        const float z = predict_margin(w, dense_problem().row(i));
        if ((z >= 0) == (dense_problem().y[i] > 0)) ++correct;
    }
    EXPECT_NEAR(static_cast<double>(correct) / dense_problem().examples,
                t.accuracy(), 0.08);
}

TEST(TrainerApi, MismatchedSparsityIsRejected)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8i8M8");
    Trainer t(cfg);
    EXPECT_THROW(t.fit(dense_problem()), std::runtime_error);

    cfg.signature = dmgc::parse_signature("D8M8");
    Trainer t2(cfg);
    EXPECT_THROW(t2.fit(sparse_problem()), std::runtime_error);
}

TEST(TrainerApi, UnsupportedPrecisionIsRejected)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D4M4");
    Trainer t(cfg);
    EXPECT_THROW(t.fit(dense_problem()), std::runtime_error);
}

TEST(TrainerApi, RoundingStrategyNames)
{
    EXPECT_STREQ(to_string(RoundingStrategy::kBiased), "biased");
    EXPECT_STREQ(to_string(RoundingStrategy::kMersennePerWrite),
                 "mersenne");
    EXPECT_STREQ(to_string(RoundingStrategy::kXorshiftPerWrite),
                 "xorshift");
    EXPECT_STREQ(to_string(RoundingStrategy::kSharedXorshift), "shared");
}

TEST(Shuffle, ShuffledTrainingConvergesAndDiffersFromSequential)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    cfg.epochs = 8;
    Trainer seq(cfg);
    const auto ms = seq.fit(dense_problem());

    cfg.shuffle = true;
    Trainer shuf(cfg);
    const auto mf = shuf.fit(dense_problem());

    EXPECT_LT(mf.final_loss, 0.55) << "shuffled order must still converge";
    EXPECT_NE(seq.model(), shuf.model())
        << "a different visit order must produce a different trajectory";
}

TEST(Shuffle, DeterministicGivenSeed)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    cfg.shuffle = true;
    cfg.epochs = 4;
    Trainer a(cfg), b(cfg);
    a.fit(dense_problem());
    b.fit(dense_problem());
    EXPECT_EQ(a.model(), b.model());
}

TEST(Shuffle, SparseEngineSupportsShuffling)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8i16M8");
    cfg.shuffle = true;
    cfg.epochs = 15;
    Trainer t(cfg);
    EXPECT_LT(t.fit(sparse_problem()).final_loss, 0.55);
}

TEST(TrainerApi, DeterministicGivenSeedSingleThread)
{
    TrainerConfig cfg = base_config();
    cfg.signature = dmgc::parse_signature("D8M8");
    cfg.epochs = 5;
    Trainer a(cfg), b(cfg);
    const auto ma = a.fit(dense_problem());
    const auto mb = b.fit(dense_problem());
    EXPECT_EQ(ma.final_loss, mb.final_loss);
    EXPECT_EQ(a.model(), b.model());
}

// --------------------------------------------------------------- goldens
//
// Each golden is the FNV-1a hash of what small single-threaded fits at
// the reference kernels compute: the final model, the per-epoch loss
// trace, the final loss and accuracy, and the numbers processed. An
// engine change that moves one bit of a fit fails these by design.
// Features are 0 or powers of two in [1/8, 1], which every data format
// holds exactly, so the hashes do not depend on FMA contraction.

template <typename Problem>
std::uint64_t
fit_hash(const Problem& problem, const TrainerConfig& cfg)
{
    Trainer trainer(cfg);
    const TrainingMetrics m = trainer.fit(problem);
    testutil::Fnv1a hash;
    hash.add(trainer.model());
    hash.add(m.loss_trace);
    hash.add(m.final_loss);
    hash.add(m.accuracy);
    hash.add(m.numbers_processed);
    return hash.value;
}

TrainerConfig
golden_config(const char* signature, RoundingStrategy rounding)
{
    TrainerConfig cfg;
    cfg.signature = dmgc::parse_signature(signature);
    cfg.rounding = rounding;
    cfg.impl = simd::Impl::kReference;
    cfg.threads = 1;
    cfg.epochs = 3;
    cfg.step_size = 0.15f;
    cfg.step_decay = 0.9f;
    cfg.seed = 2017;
    return cfg;
}

struct FitGolden
{
    const char* signature;
    RoundingStrategy rounding;
    std::uint64_t hash;
};

TEST(EngineGolden, DenseFitsMatchGoldens)
{
    // One hash per row covers batch sizes 1 and 4, each in dataset order
    // and shuffled.
    const auto problem =
        testutil::power_of_two_dense_problem(40, 256, 9001, -3);
    constexpr RoundingStrategy kB = RoundingStrategy::kBiased;
    constexpr RoundingStrategy kM = RoundingStrategy::kMersennePerWrite;
    constexpr RoundingStrategy kX = RoundingStrategy::kXorshiftPerWrite;
    constexpr RoundingStrategy kS = RoundingStrategy::kSharedXorshift;
    const FitGolden goldens[] = {
        {"D8M8", kB, 0x675063451e8690c2ull},
        {"D8M8", kM, 0x6a53251036bc4c4cull},
        {"D8M8", kX, 0x7e9212baf6f8971cull},
        {"D8M8", kS, 0x604ead95dc1370d6ull},
        {"D8M16", kB, 0xbd82f197b383a3b3ull},
        {"D8M16", kM, 0xef171e3df2ae9f58ull},
        {"D8M16", kX, 0x2659524fe33e12b8ull},
        {"D8M16", kS, 0xf6f27d691c00b193ull},
        {"D16M8", kB, 0x93a7c447763768b5ull},
        {"D16M8", kM, 0x267b8fc0352db8fbull},
        {"D16M8", kX, 0x7fffe48f63282047ull},
        {"D16M8", kS, 0x23c89e557a544f41ull},
        {"D16M16", kB, 0xd612ba346015a227ull},
        {"D16M16", kM, 0xae8bdd8ab0657657ull},
        {"D16M16", kX, 0x9c49710eadd28680ull},
        {"D16M16", kS, 0x3d0f9103a4c3a913ull},
        {"D32fM32f", kB, 0x8c30e707e3f635e2ull},
        {"D32fM32f", kM, 0x8c30e707e3f635e2ull},
        {"D32fM32f", kX, 0x8c30e707e3f635e2ull},
        {"D32fM32f", kS, 0x8c30e707e3f635e2ull},
        {"D8M8G10", kB, 0xfb275e71bf14e8e2ull},
        {"D8M8G10", kM, 0x6449c891877693d0ull},
        {"D8M8G10", kX, 0x4b3d17076ec8920dull},
        {"D8M8G10", kS, 0x1fe69867114144a9ull},
    };
    for (const FitGolden& golden : goldens) {
        testutil::Fnv1a hash;
        for (const std::size_t batch : {1, 4})
            for (const bool shuffle : {false, true}) {
                TrainerConfig cfg =
                    golden_config(golden.signature, golden.rounding);
                cfg.batch_size = batch;
                cfg.shuffle = shuffle;
                hash.add(fit_hash(problem, cfg));
            }
        EXPECT_EQ(hash.value, golden.hash)
            << golden.signature << " " << to_string(golden.rounding)
            << ": 0x" << std::hex << hash.value;
    }
}

TEST(EngineGolden, SparseFitsMatchGoldens)
{
    // About 1% dense over 2000 coordinates: 8-bit indices cannot address
    // them, so they run delta-encoded, padded across gaps over 255; wider
    // ones run absolute. One hash per row covers dataset order and
    // shuffled.
    const auto problem =
        testutil::power_of_two_sparse_problem(2000, 256, 9002, 64, -3);
    constexpr RoundingStrategy kB = RoundingStrategy::kBiased;
    constexpr RoundingStrategy kS = RoundingStrategy::kSharedXorshift;
    const FitGolden goldens[] = {
        {"D8i8M8", kB, 0x7e0f9b2101b2487cull},
        {"D8i8M8", kS, 0x2ab5c373864f5b7eull},
        {"D8i16M8", kB, 0xa7ddaab6392111aaull},
        {"D8i16M8", kS, 0x3d7ee4b494e3da94ull},
        {"D16i32M16", kB, 0xfe517bddf58b5278ull},
        {"D16i32M16", kS, 0xea0e4761b4968d0bull},
        {"D32fi32M32f", kB, 0xb17dabd3cc3c24aeull},
        {"D32fi32M32f", kS, 0xb17dabd3cc3c24aeull},
    };
    for (const FitGolden& golden : goldens) {
        testutil::Fnv1a hash;
        for (const bool shuffle : {false, true}) {
            TrainerConfig cfg =
                golden_config(golden.signature, golden.rounding);
            cfg.shuffle = shuffle;
            hash.add(fit_hash(problem, cfg));
        }
        EXPECT_EQ(hash.value, golden.hash)
            << golden.signature << " " << to_string(golden.rounding)
            << ": 0x" << std::hex << hash.value;
    }
}

} // namespace
} // namespace buckwild::core
