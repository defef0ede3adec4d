/**
 * @file
 * Compiled-simulation source emitter: lower a Design's optimized
 * evaluation plan (rtl::buildEvalPlan) to specialized C++ — one
 * straight-line eval() over the flat slot array plus one commit() for
 * the clock edge, with widths, masks, immediates and memory bounds
 * baked in as constants. The emitted translation units are what the JIT
 * (codegen/jit.h) compiles concurrently and links into one module;
 * sim::Simulator calls the resulting functions behind
 * sim::Backend::Compiled.
 *
 * Contract: for the same (design, plan) the emitted source is
 * byte-identical across runs (locked by the golden test in
 * tests/test_codegen.cc), and executing it is bit-identical to the
 * interpreter executing the same plan (locked by the three-way
 * differential suite). Every expression mirrors rtl::evalOp exactly,
 * including the shift clamps and the division-by-zero rules.
 */

#ifndef STROBER_CODEGEN_CODEGEN_H
#define STROBER_CODEGEN_CODEGEN_H

#include <string>
#include <vector>

#include "rtl/ir.h"
#include "rtl/opt.h"

namespace strober {
namespace codegen {

/** Exported symbol names of the emitted module. */
constexpr const char *kEvalSymbol = "strober_eval";
constexpr const char *kCommitSymbol = "strober_commit";
constexpr const char *kNumSlotsSymbol = "strober_num_slots";
constexpr const char *kNumMemsSymbol = "strober_num_mems";
/** Chunk count stamp; absent (0) in non-partitioned modules. */
constexpr const char *kNumChunksSymbol = "strober_num_chunks";
/** Per-chunk eval functions: strober_eval_chunk_<k>, k in [0,chunks). */
constexpr const char *kChunkSymbolPrefix = "strober_eval_chunk_";

/**
 * Emit the specialized C++ module for @p design under @p plan as a
 * list of translation units (TUs). The hot program is cut into TUs by
 * a fixed statement budget, so the list is a pure function of its
 * arguments; a design under one budget yields a single TU. TU 0 holds
 * strober_eval, strober_commit and the stamps, and declares the eval
 * functions the other TUs define.
 */
std::vector<std::string> emitSimulatorSource(const rtl::Design &design,
                                             const rtl::EvalPlan &plan);

/**
 * Emit the partitioned (compiled-parallel) module as a list of TUs:
 * one `strober_eval_chunk_<k>(slots, mems, dirty)` per chunk of @p part
 * — each step stores only on change and ORs its consumer chunks' bits
 * into the caller's dirty bitmap — plus a sequential strober_eval full
 * sweep, the shared strober_commit, and geometry stamps including
 * strober_num_chunks. Consecutive chunks fill TUs up to the same
 * statement budget as emitSimulatorSource; TU 0 holds strober_eval,
 * strober_commit and the stamps, and declares the chunk functions the
 * other TUs define. Deterministic: a pure function of its arguments.
 */
std::vector<std::string> emitPartitionedSource(const rtl::Design &design,
                                               const rtl::EvalPlan &plan,
                                               const rtl::EvalPartition &part);

} // namespace codegen
} // namespace strober

#endif // STROBER_CODEGEN_CODEGEN_H
