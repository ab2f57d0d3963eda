/**
 * @file
 * Fixed-seed mutation fuzzing of the wire decoders (ps::deserialize_message,
 * gate::deserialize, obs::parse_trace_block), run as ordinary gtest
 * cases so the sanitizer build covers them.
 *
 * Each seed is a valid frame — the golden messages of test_net /
 * test_gate / test_obs, serialized — plus the offsets of its count and
 * length fields. A mutant is the seed with bits flipped, cut short,
 * extended (sometimes by one plausible trace block), or with one count
 * field set to 0, 1, its maximum or a random value. The invariants every
 * decoder must hold on every mutant: it returns instead of throwing or
 * crashing, and a frame it accepts re-serializes to exactly its bytes
 * and parses again to the same message (compared by serializing both).
 * The iteration count and the generator seed are fixed, so a failure
 * names a reproducible (seed, iteration) pair.
 *
 * fuzz_decoder() also fuzzes net::FrameSplitter, the incremental frame
 * decoder: a seed is then a stream of golden frames back to back, its
 * count fields the frames' length prefixes, and split_frames() feeds
 * each mutant to a splitter cut at random points, the way partial
 * non-blocking reads deliver it.
 */
#ifndef BUCKWILD_TESTS_WIRE_FUZZ_H
#define BUCKWILD_TESTS_WIRE_FUZZ_H

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "net/frame.h"
#include "rng/xorshift.h"

namespace buckwild::testutil {

/// A little-endian count or length field inside a seed frame.
struct CountField
{
    std::size_t offset = 0;
    std::size_t width = 4; ///< 2 or 4 bytes
};

/// A valid frame and the count fields a mutant may rewrite.
struct FuzzSeed
{
    std::vector<std::uint8_t> bytes;
    std::vector<CountField> counts;
};

inline void
flip_bits(std::vector<std::uint8_t>& bytes, rng::Xorshift128Plus& rng)
{
    if (bytes.empty()) return;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f)
        bytes[rng() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
}

/// One mutant of `seed` (see the file comment for the operators).
inline std::vector<std::uint8_t>
mutate(const FuzzSeed& seed, rng::Xorshift128Plus& rng)
{
    std::vector<std::uint8_t> bytes = seed.bytes;
    const std::uint64_t op = rng() % 5;
    if (op == 0 || (op >= 3 && seed.counts.empty())) {
        flip_bits(bytes, rng);
    } else if (op == 1) {
        bytes.resize(rng() % bytes.size());
    } else if (op == 2) {
        // Half the extensions look like a trace block (tag, version,
        // then random ids and timestamps) so the accepting path runs.
        const bool block = rng() % 2 == 0;
        const std::size_t extra = block ? 58 : 1 + rng() % 80;
        for (std::size_t i = 0; i < extra; ++i)
            bytes.push_back(static_cast<std::uint8_t>(rng()));
        if (block) {
            bytes[seed.bytes.size()] = 0xCE;
            bytes[seed.bytes.size() + 1] = 1;
        }
    } else {
        const CountField field = seed.counts[rng() % seed.counts.size()];
        const std::uint32_t max =
            field.width == 2 ? 0xFFFFu : 0xFFFFFFFFu;
        const std::uint32_t values[] = {
            0u, 1u, max, static_cast<std::uint32_t>(rng()) & max};
        const std::uint32_t value = values[rng() % 4];
        for (std::size_t b = 0; b < field.width; ++b)
            bytes[field.offset + b] =
                static_cast<std::uint8_t>(value >> (8 * b));
        if (op == 4) flip_bits(bytes, rng);
    }
    return bytes;
}

/**
 * Runs `iterations` mutants of each seed through `check`, which parses
 * one mutant, asserts the round-trip invariants on acceptance and
 * returns whether the decoder accepted it. Stops at the first failure
 * or exception, naming the seed and iteration. Returns the number of
 * accepted mutants, so callers can require that the round trip ran.
 */
template <typename Check>
std::size_t
fuzz_decoder(const std::vector<FuzzSeed>& seeds, int iterations,
             std::uint64_t rng_seed, Check&& check)
{
    rng::Xorshift128Plus rng(rng_seed);
    std::size_t accepted = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        for (int i = 0; i < iterations; ++i) {
            const std::vector<std::uint8_t> mutant = mutate(seeds[s], rng);
            try {
                if (check(mutant)) ++accepted;
            } catch (const std::exception& e) {
                ADD_FAILURE() << "seed " << s << " iteration " << i
                              << " threw: " << e.what();
                return accepted;
            }
            if (::testing::Test::HasFailure()) {
                ADD_FAILURE() << "first failure at seed " << s
                              << " iteration " << i;
                return accepted;
            }
        }
    }
    return accepted;
}

/// What a frame decoder took out of a byte stream and how it stopped.
struct FrameRun
{
    std::vector<std::vector<std::uint8_t>> frames;
    /// kNeedMore when the bytes ran out, else the poison that stopped it.
    net::SplitResult end = net::SplitResult::kNeedMore;
    /// Bytes left buffered after the last whole frame (0 = clean end).
    std::size_t leftover = 0;
};

/// A seed stream of `frames`, framed back to back, whose count fields are
/// the frames' length prefixes.
inline FuzzSeed
frame_stream_seed(const std::vector<std::vector<std::uint8_t>>& frames)
{
    FuzzSeed seed;
    for (const std::vector<std::uint8_t>& payload : frames) {
        seed.counts.push_back({seed.bytes.size() + 4, 4});
        const std::vector<std::uint8_t> frame = net::make_frame(payload);
        seed.bytes.insert(seed.bytes.end(), frame.begin(), frame.end());
    }
    return seed;
}

/**
 * Feeds `bytes` to a fresh FrameSplitter in chunks cut at random points
 * (a single byte a quarter of the time), draining whole frames after
 * each chunk. Checks that poisoning is sticky: once next() reports
 * kBadMagic or kTooLarge, a valid frame pushed afterwards is refused
 * and never extracted.
 */
inline FrameRun
split_frames(const std::vector<std::uint8_t>& bytes,
             std::size_t max_payload_bytes, rng::Xorshift128Plus& rng)
{
    net::FrameSplitter splitter(max_payload_bytes);
    FrameRun run;
    std::vector<std::uint8_t> payload;
    for (std::size_t at = 0; at < bytes.size();) {
        const std::size_t left = bytes.size() - at;
        const std::size_t chunk = rng() % 4 == 0 ? 1 : 1 + rng() % left;
        EXPECT_EQ(splitter.push(bytes.data() + at, chunk),
                  net::SplitResult::kNeedMore);
        at += chunk;
        net::SplitResult result;
        while ((result = splitter.next(payload)) == net::SplitResult::kFrame)
            run.frames.push_back(payload);
        if (result != net::SplitResult::kNeedMore) {
            run.end = result;
            break;
        }
    }
    run.leftover = splitter.buffered();
    if (run.end != net::SplitResult::kNeedMore) {
        EXPECT_TRUE(splitter.poisoned());
        const std::vector<std::uint8_t> valid = net::make_frame({1, 2, 3});
        EXPECT_EQ(splitter.push(valid.data(), valid.size()),
                  net::SplitResult::kBadMagic);
        EXPECT_EQ(splitter.next(payload), net::SplitResult::kBadMagic);
    }
    return run;
}

} // namespace buckwild::testutil

#endif // BUCKWILD_TESTS_WIRE_FUZZ_H
