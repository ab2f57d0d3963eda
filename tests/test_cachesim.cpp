/**
 * @file
 * Tests for the cache-hierarchy simulator: tag-array mechanics, MESI
 * coherence, the next-line prefetcher, the obstinate cache (§6.2), the
 * SGD trace driver, and the stale-read statistical harness (Fig 6f).
 */
#include <gtest/gtest.h>

#include "cachesim/cache.h"
#include "cachesim/hierarchy.h"
#include "cachesim/sgd_trace.h"
#include "cachesim/stale_sgd.h"
#include "dataset/problem.h"
#include "test_common.h"

namespace buckwild::cachesim {
namespace {

// ---------------------------------------------------------------- arrays

TEST(TagArray, HitAfterInstallMissOtherwise)
{
    TagArray tags({1024, 4, 1});
    std::uint64_t evicted = 0;
    bool dirty = false;
    EXPECT_EQ(tags.lookup(5), Mesi::kInvalid);
    EXPECT_FALSE(tags.install(5, Mesi::kShared, evicted, dirty));
    EXPECT_EQ(tags.lookup(5), Mesi::kShared);
    EXPECT_EQ(tags.lookup(6), Mesi::kInvalid);
}

TEST(TagArray, LruEvictionWithinSet)
{
    // 4 sets x 2 ways: lines 0, 4, 8 all map to set 0.
    TagArray tags({4 * 2 * kLineBytes, 2, 1});
    std::uint64_t evicted = 0;
    bool dirty = false;
    tags.install(0, Mesi::kShared, evicted, dirty);
    tags.install(4, Mesi::kModified, evicted, dirty);
    (void)tags.lookup(0); // 0 is now MRU, 4 is LRU
    EXPECT_TRUE(tags.install(8, Mesi::kShared, evicted, dirty));
    EXPECT_EQ(evicted, 4u);
    EXPECT_TRUE(dirty) << "evicted line was Modified";
    EXPECT_EQ(tags.lookup(0), Mesi::kShared);
    EXPECT_EQ(tags.lookup(4), Mesi::kInvalid);
    EXPECT_EQ(tags.lookup(8), Mesi::kShared);
}

TEST(TagArray, InvalidateReportsDirtiness)
{
    TagArray tags({1024, 4, 1});
    std::uint64_t evicted = 0;
    bool dirty = false;
    tags.install(3, Mesi::kModified, evicted, dirty);
    EXPECT_TRUE(tags.invalidate(3));
    EXPECT_FALSE(tags.invalidate(3)); // already gone
    tags.install(3, Mesi::kShared, evicted, dirty);
    EXPECT_FALSE(tags.invalidate(3)); // clean
}

TEST(TagArray, NonPowerOfTwoSetCountsUseModuloIndexing)
{
    // 3 sets x 1 way: lines 0 and 3 collide, 1 does not.
    TagArray tags({3 * kLineBytes, 1, 1});
    std::uint64_t evicted = 0;
    bool dirty = false;
    tags.install(0, Mesi::kShared, evicted, dirty);
    tags.install(1, Mesi::kShared, evicted, dirty);
    EXPECT_TRUE(tags.install(3, Mesi::kShared, evicted, dirty));
    EXPECT_EQ(evicted, 0u);
    EXPECT_EQ(tags.lookup(1), Mesi::kShared);
    EXPECT_THROW(TagArray({0, 1, 1}), std::runtime_error);
}

// ------------------------------------------------------------- coherence

ChipConfig
tiny_chip(std::size_t cores = 2)
{
    ChipConfig cfg;
    cfg.cores = cores;
    cfg.l1 = {4 * kLineBytes * 2, 2, 4};   // 8 lines
    cfg.l2 = {16 * kLineBytes * 2, 2, 12}; // 32 lines
    cfg.l3 = {256 * kLineBytes * 4, 4, 36};
    cfg.prefetcher = Prefetcher::kNone;
    return cfg;
}

TEST(Chip, ReadMissHitProgression)
{
    ChipConfig cfg = tiny_chip();
    Chip chip(cfg);
    // Cold read: L3 miss -> DRAM, overlapped as a streaming fill.
    EXPECT_DOUBLE_EQ(chip.read(0, 100), (36.0 + 200.0) / cfg.streaming_mlp);
    // Second read: pipelined L1 hit.
    EXPECT_DOUBLE_EQ(chip.read(0, 100), 4.0 / cfg.hit_mlp);
    EXPECT_EQ(chip.stats().dram_fills, 1u);
    EXPECT_EQ(chip.stats().l1_hits, 1u);
    // Other core: L3 hit. Core 0 only holds it clean (nobody wrote), so
    // this is still a prefetchable stream access, not a dirty transfer.
    EXPECT_DOUBLE_EQ(chip.read(1, 100), 36.0 / cfg.streaming_mlp);
    EXPECT_EQ(chip.stats().l3_hits, 1u);
}

TEST(Chip, WriteInvalidatesSharers)
{
    Chip chip(tiny_chip(3));
    chip.read(0, 7);
    chip.read(1, 7);
    chip.read(2, 7);
    // Core 0 writes: cores 1 and 2 must lose their copies.
    chip.write(0, 7);
    EXPECT_EQ(chip.stats().invalidates_sent, 2u);
    EXPECT_EQ(chip.stats().invalidates_ignored, 0u);
    // Core 1 re-read: satisfied on-chip (L3), not from its own L1.
    const double latency = chip.read(1, 7);
    EXPECT_GE(latency, 36.0);
}

TEST(Chip, ExclusiveSilentUpgrade)
{
    Chip chip(tiny_chip());
    chip.read(0, 9); // sole reader -> E
    // E -> M upgrade is silent: L1-latency write, no invalidates.
    EXPECT_DOUBLE_EQ(chip.write(0, 9), 4.0);
    EXPECT_EQ(chip.stats().invalidates_sent, 0u);
}

TEST(Chip, SharedUpgradePaysDirectoryTrip)
{
    Chip chip(tiny_chip());
    ChipConfig cfg2 = tiny_chip();
    Chip& c2 = chip;
    (void)cfg2;
    c2.read(0, 9);
    c2.read(1, 9); // both S
    const double latency = c2.write(0, 9);
    // Directory trip plus one invalidate fan-out.
    EXPECT_DOUBLE_EQ(latency, 12.0 + 36.0 + tiny_chip().invalidate_cost);
    EXPECT_EQ(chip.stats().upgrades, 1u);
    EXPECT_EQ(chip.stats().invalidates_sent, 1u);
}

TEST(Chip, ModifiedOwnerDowngradesOnRemoteRead)
{
    Chip chip(tiny_chip());
    chip.read(0, 11);
    chip.write(0, 11); // core 0 has M
    chip.read(1, 11);  // forces downgrade
    // Core 0 writing again must now upgrade (it is S).
    const double latency = chip.write(0, 11);
    EXPECT_GT(latency, 4.0);
    EXPECT_GE(chip.stats().upgrades, 1u);
}

TEST(Chip, ObstinateCacheIgnoresInvalidatesOnModelLines)
{
    ChipConfig cfg = tiny_chip(2);
    cfg.obstinacy = 1.0; // always obstinate
    Chip chip(cfg);
    chip.set_model_range(0, 100);
    chip.read(0, 50);
    chip.read(1, 50);
    chip.write(0, 50);
    EXPECT_EQ(chip.stats().invalidates_sent, 1u);
    EXPECT_EQ(chip.stats().invalidates_ignored, 1u);
    // Core 1 still hits locally (stale data — that's the point).
    EXPECT_DOUBLE_EQ(chip.read(1, 50), 4.0 / cfg.hit_mlp);
    EXPECT_GE(chip.stats().stale_reads, 1u);
}

TEST(Chip, ObstinacyDoesNotApplyOutsideModelRange)
{
    ChipConfig cfg = tiny_chip(2);
    cfg.obstinacy = 1.0;
    Chip chip(cfg);
    chip.set_model_range(0, 10);
    chip.read(0, 50);
    chip.read(1, 50);
    chip.write(0, 50); // line 50 is not model: invalidate is honored
    EXPECT_EQ(chip.stats().invalidates_ignored, 0u);
    EXPECT_GE(chip.read(1, 50), 36.0);
}

TEST(Chip, ObstinacyIsProbabilistic)
{
    ChipConfig cfg = tiny_chip(2);
    cfg.obstinacy = 0.5;
    Chip chip(cfg);
    chip.set_model_range(0, 1 << 20);
    std::uint64_t ignored_before = 0;
    for (std::uint64_t line = 0; line < 400; ++line) {
        chip.read(0, line);
        chip.read(1, line);
        chip.write(0, line);
        ignored_before = chip.stats().invalidates_ignored;
    }
    const double rate = static_cast<double>(ignored_before) / 400.0;
    EXPECT_GT(rate, 0.35);
    EXPECT_LT(rate, 0.65);
}

TEST(Chip, PrefetcherFetchesNextLine)
{
    ChipConfig cfg = tiny_chip(1);
    cfg.prefetcher = Prefetcher::kNextLine;
    Chip chip(cfg);
    chip.read(0, 200); // demand miss; prefetches 201
    EXPECT_EQ(chip.stats().prefetches_issued, 1u);
    // 201 now hits in L2 (prefetched), not DRAM.
    const double latency = chip.read(0, 201);
    EXPECT_DOUBLE_EQ(latency, 12.0 / cfg.hit_mlp);
    EXPECT_EQ(chip.stats().prefetch_hits, 1u);
}

TEST(Chip, AdjacentLinePrefetcherFetchesPairBuddy)
{
    ChipConfig cfg = tiny_chip(1);
    cfg.prefetcher = Prefetcher::kAdjacentLine;
    Chip chip(cfg);
    chip.read(0, 200); // even line: buddy is 201
    EXPECT_EQ(chip.stats().prefetches_issued, 1u);
    EXPECT_DOUBLE_EQ(chip.read(0, 201), 12.0 / cfg.hit_mlp);
    // Odd line: buddy is the *previous* line.
    chip.read(0, 301);
    EXPECT_DOUBLE_EQ(chip.read(0, 300), 12.0 / cfg.hit_mlp);
}

TEST(Chip, Stream2PrefetcherFetchesTwoLines)
{
    ChipConfig cfg = tiny_chip(1);
    cfg.prefetcher = Prefetcher::kStream2;
    Chip chip(cfg);
    chip.read(0, 400);
    EXPECT_EQ(chip.stats().prefetches_issued, 2u);
    EXPECT_DOUBLE_EQ(chip.read(0, 401), 12.0 / cfg.hit_mlp);
    EXPECT_DOUBLE_EQ(chip.read(0, 402), 12.0 / cfg.hit_mlp);
}

TEST(Chip, PrefetcherNames)
{
    EXPECT_STREQ(to_string(Prefetcher::kNone), "off");
    EXPECT_STREQ(to_string(Prefetcher::kNextLine), "next-line");
    EXPECT_STREQ(to_string(Prefetcher::kAdjacentLine), "adjacent-line");
    EXPECT_STREQ(to_string(Prefetcher::kStream2), "stream-2");
}

TEST(Chip, PrefetchedModelLinesCanBeInvalidatedBeforeUse)
{
    // The §5.3 pathology: a prefetched model line is invalidated by
    // another core's write before the prefetching core ever uses it.
    ChipConfig cfg = tiny_chip(2);
    cfg.prefetcher = Prefetcher::kNextLine;
    Chip chip(cfg);
    chip.set_model_range(0, 1000);
    chip.read(0, 300);  // core 0 prefetches 301
    chip.read(1, 301);
    chip.write(1, 301); // invalidates core 0's prefetched copy
    EXPECT_GE(chip.stats().prefetched_invalidated, 1u);
}

TEST(Chip, RejectsBadCoreCount)
{
    ChipConfig cfg = tiny_chip();
    cfg.cores = 0;
    EXPECT_THROW(Chip{cfg}, std::runtime_error);
    cfg.cores = 64;
    EXPECT_THROW(Chip{cfg}, std::runtime_error);
}

// ------------------------------------------------------------- SGD trace

SgdWorkload
small_work(std::size_t n)
{
    SgdWorkload w;
    w.model_size = n;
    w.iterations_per_core = 8;
    return w;
}

TEST(SgdTrace, ProcessesExpectedNumbers)
{
    ChipConfig chip;
    chip.cores = 4;
    const auto r = simulate_sgd(chip, small_work(1 << 12));
    EXPECT_EQ(r.numbers_processed, 4.0 * 8.0 * 4096.0);
    EXPECT_GT(r.wall_cycles, 0.0);
    EXPECT_GT(r.gnps(2.5), 0.0);
}

TEST(SgdTrace, SmallSharedModelsSufferInvalidations)
{
    // Fig 2 / Fig 6c mechanism: per-number cost rises as the model
    // shrinks because model lines ping-pong between writers.
    ChipConfig chip;
    chip.cores = 8;
    const auto small = simulate_sgd(chip, small_work(1 << 10));
    const auto large = simulate_sgd(chip, small_work(1 << 18));
    const double small_cpn = small.wall_cycles / small.numbers_processed;
    const double large_cpn = large.wall_cycles / large.numbers_processed;
    EXPECT_GT(small_cpn, large_cpn * 1.5)
        << "small=" << small_cpn << " large=" << large_cpn;
    EXPECT_GT(small.stats.invalidates_sent, 0u);
}

TEST(SgdTrace, ObstinateCacheRecoversSmallModelThroughput)
{
    // Fig 6c: q ~ 0.5+ removes most of the small-model coherence cost.
    ChipConfig chip;
    chip.cores = 8;
    const auto base = simulate_sgd(chip, small_work(1 << 10));
    chip.obstinacy = 0.95;
    const auto obstinate = simulate_sgd(chip, small_work(1 << 10));
    EXPECT_LT(obstinate.wall_cycles, base.wall_cycles)
        << "ignoring invalidates must reduce coherence stalls";
    EXPECT_GT(obstinate.stats.invalidates_ignored, 0u);
}

TEST(SgdTrace, PrefetchOffHelpsSmallModels)
{
    // Fig 6a: for small models the prefetcher wastes bandwidth on lines
    // that are invalidated before use.
    ChipConfig chip;
    chip.cores = 8;
    chip.prefetcher = Prefetcher::kNextLine;
    const auto on = simulate_sgd(chip, small_work(1 << 10));
    chip.prefetcher = Prefetcher::kNone;
    const auto off = simulate_sgd(chip, small_work(1 << 10));
    EXPECT_LE(off.wall_cycles, on.wall_cycles * 1.02);
    EXPECT_GT(on.stats.prefetches_issued, 0u);
}

TEST(SgdTrace, LowerPrecisionMovesFewerLines)
{
    ChipConfig chip;
    chip.cores = 4;
    SgdWorkload w8 = small_work(1 << 16);
    w8.dataset_bits = 8;
    w8.model_bits = 8;
    SgdWorkload w32 = w8;
    w32.dataset_bits = 32;
    w32.model_bits = 32;
    const auto r8 = simulate_sgd(chip, w8);
    const auto r32 = simulate_sgd(chip, w32);
    EXPECT_LT(r8.wall_cycles, r32.wall_cycles)
        << "8-bit traffic is a quarter of 32-bit traffic";
    // Near-linear: the ratio should be in the ballpark of 4.
    EXPECT_GT(r32.wall_cycles / r8.wall_cycles, 2.0);
}

TEST(SgdTrace, MiniBatchReducesModelWriteTraffic)
{
    // Fig 6d: larger B means fewer model writes -> fewer invalidations.
    ChipConfig chip;
    chip.cores = 8;
    SgdWorkload w = small_work(1 << 10);
    w.iterations_per_core = 32;
    const auto b1 = simulate_sgd(chip, w);
    w.batch_size = 16;
    const auto b16 = simulate_sgd(chip, w);
    EXPECT_LT(b16.stats.invalidates_sent, b1.stats.invalidates_sent);
}

TEST(SgdTrace, SparseWorkloadTouchesFewerNumbers)
{
    ChipConfig chip;
    chip.cores = 4;
    SgdWorkload dense = small_work(1 << 14);
    SgdWorkload sparse = dense;
    sparse.density = 0.03;
    sparse.index_bits = 16;
    const auto rd = simulate_sgd(chip, dense);
    const auto rs = simulate_sgd(chip, sparse);
    // 3% density: ~3% of the numbers per iteration.
    EXPECT_NEAR(rs.numbers_processed / rd.numbers_processed, 0.03, 0.005);
    EXPECT_LT(rs.wall_cycles, rd.wall_cycles);
    // But the per-number cost is higher (irregular accesses + index
    // stream) — the paper's sparse sub-linearity.
    EXPECT_GT(rs.wall_cycles / rs.numbers_processed,
              rd.wall_cycles / rd.numbers_processed);
}

TEST(SgdTrace, SparseIndexPrecisionReducesTraffic)
{
    ChipConfig chip;
    chip.cores = 2;
    SgdWorkload w32 = small_work(1 << 14);
    w32.density = 0.05;
    w32.index_bits = 32;
    SgdWorkload w8 = w32;
    w8.index_bits = 8;
    const auto r32 = simulate_sgd(chip, w32);
    const auto r8 = simulate_sgd(chip, w8);
    EXPECT_LT(r8.stats.dram_fills, r32.stats.dram_fills)
        << "narrower indices move fewer dataset lines";
}

TEST(SgdTrace, SparseRejectsBadConfig)
{
    ChipConfig chip;
    SgdWorkload w = small_work(64);
    w.density = 0.0;
    EXPECT_THROW(simulate_sgd(chip, w), std::runtime_error);
    w.density = 0.5;
    w.batch_size = 4;
    EXPECT_THROW(simulate_sgd(chip, w), std::runtime_error);
}

TEST(SgdTrace, RejectsZeroBatch)
{
    ChipConfig chip;
    SgdWorkload w = small_work(64);
    w.batch_size = 0;
    EXPECT_THROW(simulate_sgd(chip, w), std::runtime_error);
}

// -------------------------------------------------------- stale-read SGD

TEST(StaleSgd, ConvergesWithoutStaleness)
{
    const auto p = dataset::generate_logistic_dense(64, 1500, 77);
    StaleSgdConfig cfg;
    cfg.workers = 4;
    cfg.epochs = 10;
    const auto r = train_with_stale_reads(p, cfg);
    EXPECT_LT(r.final_loss, 0.5);
    EXPECT_GT(r.accuracy, 0.78);
    EXPECT_EQ(r.stale_line_reads, 0u);
}

TEST(StaleSgd, HighObstinacyBarelyAffectsQuality)
{
    // Fig 6f: "no detectable effect on statistical efficiency, even when
    // q is as high as 95%".
    const auto p = dataset::generate_logistic_dense(64, 1500, 78);
    StaleSgdConfig cfg;
    cfg.workers = 18;
    cfg.epochs = 10;
    const auto base = train_with_stale_reads(p, cfg);
    cfg.obstinacy = 0.95;
    const auto stale = train_with_stale_reads(p, cfg);
    EXPECT_GT(stale.stale_line_reads, 0u);
    EXPECT_NEAR(stale.final_loss, base.final_loss, 0.05)
        << "q=0.95 must be statistically indistinguishable";
}

TEST(StaleSgd, RejectsBadParameters)
{
    const auto p = dataset::generate_logistic_dense(8, 50, 79);
    StaleSgdConfig cfg;
    cfg.workers = 0;
    EXPECT_THROW(train_with_stale_reads(p, cfg), std::runtime_error);
    cfg.workers = 2;
    cfg.obstinacy = 1.5;
    EXPECT_THROW(train_with_stale_reads(p, cfg), std::runtime_error);
}

TEST(StaleSgd, LossTraceMatchesGolden)
{
    // FNV-1a of the loss trace, final loss, accuracy and line counts: a
    // change that moves one bit of the emulation fails this by design.
    // Power-of-two features keep every product exact, so the hash does
    // not depend on FMA contraction.
    const auto p = testutil::power_of_two_dense_problem(48, 600, 80);
    StaleSgdConfig cfg;
    cfg.workers = 4;
    cfg.obstinacy = 0.5;
    cfg.epochs = 4;
    const auto r = train_with_stale_reads(p, cfg);
    testutil::Fnv1a hash;
    hash.add(r.loss_trace);
    hash.add(r.final_loss);
    hash.add(r.accuracy);
    hash.add(r.stale_line_reads);
    hash.add(r.refreshes);
    EXPECT_EQ(hash.value, 0x54008909b8f98323ull) << "0x" << std::hex << hash.value;
}

} // namespace
} // namespace buckwild::cachesim
