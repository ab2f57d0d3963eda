/**
 * @file
 * Umbrella header for the Buckwild! library.
 *
 * Pulls in the public API surface:
 *   - core::Trainer / TrainerConfig / TrainingMetrics — the SGD engine
 *   - dmgc::Signature / PerfModel — the DMGC model (§3, §4)
 *   - dataset generators and quantized containers
 *   - the precision substrate (lowp::) — grids, rounding, rep dispatch
 *   - fixed-point formats and quantizer shims
 *   - the kernel implementations (simd::) for power users
 *
 * Subsystem-specific headers (cachesim/, fpga/, isa/, nn/) are included
 * directly by the experiments that need them.
 */
#ifndef BUCKWILD_BUCKWILD_H
#define BUCKWILD_BUCKWILD_H

#include "core/config.h"
#include "core/engine.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "dataset/digits.h"
#include "dataset/fourier.h"
#include "dataset/problem.h"
#include "dataset/quantized.h"
#include "dmgc/perf_model.h"
#include "dmgc/signature.h"
#include "dmgc/taxonomy.h"
#include "fixed/fixed_point.h"
#include "fixed/nibble.h"
#include "lowp/dispatch.h"
#include "lowp/grid.h"
#include "lowp/rep_traits.h"
#include "lowp/round.h"
#include "lowp/shared_random.h"
#include "rng/random_source.h"
#include "rng/xorshift.h"
#include "simd/ops.h"

#endif // BUCKWILD_BUCKWILD_H
