/**
 * @file
 * Explicit-communication data-parallel SGD — the C term of the DMGC model.
 *
 * Hogwild!/Buckwild! communicate implicitly through cache coherence (no C
 * term). The other corner of the taxonomy is *explicit synchronous*
 * communication: each worker computes a mini-batch gradient on its shard,
 * the gradients are quantized to the communication precision, exchanged
 * (all-reduce), and applied to every replica. Two classified systems:
 *
 *  - Cs32: full-precision synchronous exchange (classic data-parallel
 *    SGD);
 *  - Cs1 (Seide et al. [46], Table 1): gradients "quantized ... to but
 *    one bit per value", with the quantization error carried forward in
 *    full precision and added to the next round's gradient — the *error
 *    feedback* that makes 1-bit exchange work.
 *
 * This module emulates W workers deterministically in one thread (the
 * communication pattern, not wall-clock speed, is what the DMGC C axis
 * is about) and reports both statistical efficiency and the bytes
 * exchanged per round, so benches can show the 32x traffic reduction at
 * matched convergence.
 */
#ifndef BUCKWILD_CORE_COMM_SGD_H
#define BUCKWILD_CORE_COMM_SGD_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/loss.h"
#include "dataset/problem.h"

namespace buckwild::core {

/// Configuration of the explicit-communication trainer.
struct CommSgdConfig
{
    std::size_t workers = 4;
    /// Communication precision in bits per gradient value: 32 (float),
    /// 8, or 1 (Seide-style sign exchange with error feedback).
    int comm_bits = 32;
    /// Carry the quantization error forward (essential at 1 bit).
    bool error_feedback = true;
    std::size_t epochs = 10;
    /// Per-worker mini-batch per round.
    std::size_t batch_per_worker = 8;
    float step_size = 0.15f;
    float step_decay = 0.9f;
    Loss loss = Loss::kLogistic;
    std::uint64_t seed = 11;
};

/// Outcome: convergence metrics plus communication volume.
struct CommSgdResult
{
    std::vector<double> loss_trace;
    double final_loss = 0.0;
    double accuracy = 0.0;
    /// Bytes each worker sends per exchange round.
    double bytes_per_round = 0.0;
    std::size_t rounds = 0;
    /// The DMGC signature of the configuration, e.g. "Cs1".
    std::string signature;
};

/// Runs synchronous data-parallel SGD with quantized gradient exchange.
/// Sparse rows train through the executed cluster (ps::train_cluster),
/// which runs dense and sparse problems through one worker loop.
CommSgdResult train_comm_sgd(const dataset::DenseProblem& problem,
                             const CommSgdConfig& config);

} // namespace buckwild::core

#endif // BUCKWILD_CORE_COMM_SGD_H
