/**
 * @file
 * Umbrella header for the serving front door.
 *
 * The gate is the network edge of the serving tier: a binary wire
 * protocol over net:: frames (wire.h), ingress on a net::Reactor polled
 * by one I/O thread, with replies posted to each connection's outbox
 * (server.h), model-name routing over per-name ModelRegistry instances
 * (router.h), admission control — per-tenant token buckets plus
 * cost-aware deadline rejection seeded from the DMGC roofline
 * (admission.h) — and two strict-priority lanes between ingress and
 * the scoring workers (scheduler.h). client.h is the matching
 * pipelined client the tools and benchmarks drive load with.
 */
#ifndef BUCKWILD_GATE_GATE_H
#define BUCKWILD_GATE_GATE_H

#include "gate/admission.h"
#include "gate/client.h"
#include "gate/router.h"
#include "gate/scheduler.h"
#include "gate/server.h"
#include "gate/wire.h"

#endif // BUCKWILD_GATE_GATE_H
