#include "codegen/codegen.h"

#include <algorithm>
#include <cstdio>

#include "util/bits.h"
#include "util/logging.h"

namespace strober {
namespace codegen {

using rtl::EvalStep;
using rtl::Op;
using rtl::kNoSlot;

namespace {

/** Statements per emitted eval function; keeps any single function
 *  small enough that compile time stays linear in design size (GCC 12
 *  at -O2 took 8.4 s on one 2048-statement function and 4.2 s on the
 *  same statements as four 512-statement ones). */
constexpr size_t kChunkStmts = 512;

/** Statements per emitted translation unit. The JIT compiles TUs
 *  concurrently, so this sets how many compiler processes a design
 *  can keep busy; a function larger than the budget gets a TU of its
 *  own. Fixed, so the TU list is a pure function of the design. */
constexpr size_t kTuStmts = 1024;

/** Parameter list of a partition chunk function. */
constexpr const char *kChunkSignature =
    "(uint64_t* __restrict__ s, uint64_t* const* __restrict__ m, "
    "uint64_t* __restrict__ d)";

std::string
hexU64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llxull", (unsigned long long)v);
    return buf;
}

std::string
dec(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)v);
    return buf;
}

std::string
slot(uint32_t s)
{
    return "s[" + dec(s) + "]";
}

/** Wrap @p expr in the width mask (a no-op at 64 bits). */
std::string
masked(const std::string &expr, unsigned width)
{
    if (width >= 64)
        return expr;
    return "(" + expr + ") & " + hexU64(bitMask(width));
}

/** Sign-extend @p expr from @p width to 64 bits (two's-complement). */
std::string
sext64(const std::string &expr, unsigned width)
{
    if (width == 0 || width >= 64)
        return expr;
    std::string sign = hexU64(1ULL << (width - 1));
    return "((" + expr + " ^ " + sign + ") - " + sign + ")";
}

/** The pieces of one step's computation: an optional prelude declaring
 *  locals, and the value expression. Shared by the straight-line and
 *  the chunked (dirty-gated) emitters so their semantics cannot drift
 *  apart. */
struct StepParts
{
    std::string prelude; //!< "" or "uint64_t amt = ...; "
    std::string expr;
};

/**
 * The expression computing EvalStep @p st. Semantics mirror
 * rtl::evalOp case-for-case; keep the two in sync.
 */
StepParts
stepParts(const rtl::Design &d, const EvalStep &st)
{
    const std::string a = slot(st.a);
    const std::string b = slot(st.b);
    const std::string c = slot(st.c);
    const unsigned w = st.width;
    std::string expr;
    switch (st.op) {
      case Op::Not:
        expr = masked("~" + a, w);
        break;
      case Op::Neg:
        expr = masked("0ull - " + a, w);
        break;
      case Op::RedOr:
        expr = "(uint64_t)(" + a + " != 0ull)";
        break;
      case Op::RedAnd:
        expr = "(uint64_t)(" + a + " == " + hexU64(bitMask(st.widthA)) + ")";
        break;
      case Op::RedXor:
        expr = "(uint64_t)(__builtin_popcountll(" + a + ") & 1)";
        break;
      case Op::SExt:
        expr = masked(sext64(a, st.widthA), w);
        break;
      case Op::Pad:
        expr = a;
        break;
      case Op::Bits: {
        unsigned hi = static_cast<unsigned>(st.imm >> 8);
        unsigned lo = static_cast<unsigned>(st.imm & 0xff);
        expr = lo ? masked(a + " >> " + dec(lo), hi - lo + 1)
                  : masked(a, hi - lo + 1);
        break;
      }
      case Op::Add:
        expr = masked(a + " + " + b, w);
        break;
      case Op::Sub:
        expr = masked(a + " - " + b, w);
        break;
      case Op::Mul:
        expr = masked(a + " * " + b, w);
        break;
      case Op::Divu:
        expr = b + " == 0ull ? " + hexU64(bitMask(w)) + " : " + a + " / " + b;
        break;
      case Op::Remu:
        expr = b + " == 0ull ? " + a + " : " + a + " % " + b;
        break;
      case Op::And:
        expr = a + " & " + b;
        break;
      case Op::Or:
        expr = a + " | " + b;
        break;
      case Op::Xor:
        expr = a + " ^ " + b;
        break;
      case Op::Shl:
        expr = b + " >= " + dec(w) + "ull ? 0ull : " +
               masked("(" + a + " << " + b + ")", w);
        break;
      case Op::Shru:
        expr = b + " >= " + dec(w) + "ull ? 0ull : " + a + " >> " + b;
        break;
      case Op::Sra: {
        // amt = min(b, width) capped at 63 == min(b, min(width, 63)).
        unsigned cap = w > 63 ? 63 : w;
        return {"uint64_t amt = " + b + " < " + dec(cap) + "ull ? " + b +
                    " : " + dec(cap) + "ull; ",
                masked("(uint64_t)((int64_t)" + sext64(a, st.widthA) +
                           " >> amt)",
                       w)};
      }
      case Op::Eq:
        expr = "(uint64_t)(" + a + " == " + b + ")";
        break;
      case Op::Ne:
        expr = "(uint64_t)(" + a + " != " + b + ")";
        break;
      case Op::Ltu:
        expr = "(uint64_t)(" + a + " < " + b + ")";
        break;
      case Op::Lts:
        expr = "(uint64_t)((int64_t)" + sext64(a, st.widthA) +
               " < (int64_t)" + sext64(b, st.widthB) + ")";
        break;
      case Op::Cat:
        expr = masked("(" + a + " << " + dec(st.widthB) + ") | " + b, w);
        break;
      case Op::Mux:
        expr = a + " & 1ull ? " + b + " : " + c;
        break;
      case Op::MemRead: {
        const rtl::MemInfo &m = d.mems()[st.a];
        expr = b + " < " + dec(m.depth) + "ull ? m[" + dec(st.a) + "][" + b +
               "] : 0ull";
        break;
      }
      default:
        panic("codegen: unexpected op %s in evaluation plan",
              rtl::opName(st.op));
    }
    return {"", expr};
}

/** One statement computing EvalStep @p st into its destination slot. */
std::string
stepStmt(const rtl::Design &d, const EvalStep &st)
{
    StepParts p = stepParts(d, st);
    const std::string dst = slot(st.dst);
    if (p.prelude.empty())
        return "  " + dst + " = " + p.expr + ";\n";
    return "  { " + p.prelude + dst + " = " + p.expr + "; }\n";
}

/** "(s[en] & 1ull)" or "" when the port has no enable. */
std::string
enableExpr(rtl::NodeId en, const rtl::EvalPlan &plan)
{
    if (en == rtl::kNoNode)
        return "";
    return "(" + slot(plan.slotOf[en]) + " & 1ull)";
}

/** Append strober_commit: latch registers and sync-read data
 *  (read-before-write), apply memory writes (last port wins), then
 *  store the pendings — the same order as Simulator::commitEdge. */
void
emitCommit(std::string &out, const rtl::Design &d,
           const rtl::EvalPlan &plan)
{
    out += "extern \"C\" void strober_commit(uint64_t* s, uint64_t* const* "
           "m) {\n";
    out += "  (void)m;\n";
    const auto &regs = d.regs();
    for (size_t i = 0; i < regs.size(); ++i) {
        const rtl::RegInfo &r = regs[i];
        std::string nextV = slot(plan.slotOf[r.next]);
        std::string oldV = slot(plan.slotOf[r.node]);
        std::string en = enableExpr(r.en, plan);
        out += "  const uint64_t rp" + dec(i) + " = " +
               (en.empty() ? nextV : en + " ? " + nextV + " : " + oldV) +
               ";\n";
    }
    size_t flat = 0;
    for (size_t mi = 0; mi < d.mems().size(); ++mi) {
        const rtl::MemInfo &m = d.mems()[mi];
        if (!m.syncRead)
            continue;
        for (const rtl::MemReadPort &p : m.reads) {
            std::string read = slot(plan.slotOf[p.addr]) + " < " +
                               dec(m.depth) + "ull ? m[" + dec(mi) + "][" +
                               slot(plan.slotOf[p.addr]) + "] : 0ull";
            std::string en = enableExpr(p.en, plan);
            out += "  const uint64_t sp" + dec(flat) + " = " +
                   (en.empty() ? "(" + read + ")"
                               : en + " ? (" + read + ") : " +
                                     slot(plan.slotOf[p.data])) +
                   ";\n";
            ++flat;
        }
    }
    for (size_t mi = 0; mi < d.mems().size(); ++mi) {
        const rtl::MemInfo &m = d.mems()[mi];
        for (const rtl::MemWritePort &p : m.writes) {
            std::string en = enableExpr(p.en, plan);
            std::string body = "{ const uint64_t a = " +
                               slot(plan.slotOf[p.addr]) + "; if (a < " +
                               dec(m.depth) + "ull) m[" + dec(mi) +
                               "][a] = " + slot(plan.slotOf[p.data]) +
                               "; }";
            out += en.empty() ? "  " + body + "\n"
                              : "  if (" + en + ") " + body + "\n";
        }
    }
    for (size_t i = 0; i < regs.size(); ++i)
        out += "  " + slot(plan.slotOf[regs[i].node]) + " = rp" + dec(i) +
               ";\n";
    flat = 0;
    for (const rtl::MemInfo &m : d.mems()) {
        if (!m.syncRead)
            continue;
        for (const rtl::MemReadPort &p : m.reads) {
            out += "  " + slot(plan.slotOf[p.data]) + " = sp" + dec(flat) +
                   ";\n";
            ++flat;
        }
    }
    out += "}\n\n";
}

/** Append the geometry stamps; the loader cross-checks them before
 *  trusting the module (a stale .so over a changed design is a hard
 *  error). */
void
emitStamps(std::string &out, const rtl::Design &d,
           const rtl::EvalPlan &plan, size_t numChunks)
{
    out += "extern \"C\" const uint64_t strober_num_slots = " +
           dec(plan.numSlots) + ";\n";
    out += "extern \"C\" const uint64_t strober_num_mems = " +
           dec(d.mems().size()) + ";\n";
    if (numChunks > 0)
        out += "extern \"C\" const uint64_t strober_num_chunks = " +
               dec(numChunks) + ";\n";
}

/**
 * Cut consecutive functions of @p stmts statements each into TUs of at
 * most kTuStmts statements; a function over the budget gets a TU of
 * its own. @return the first function of each TU plus a final
 * sentinel, so TU t holds functions [cuts[t], cuts[t+1]). At least one
 * TU, even with no functions.
 */
std::vector<size_t>
cutTus(const std::vector<size_t> &stmts)
{
    std::vector<size_t> cuts{0};
    size_t used = 0;
    for (size_t f = 0; f < stmts.size(); ++f) {
        if (used > 0 && used + stmts[f] > kTuStmts) {
            cuts.push_back(f);
            used = 0;
        }
        used += stmts[f];
    }
    cuts.push_back(stmts.size());
    return cuts;
}

/** Header of secondary TU @p tu (of @p numTus); TU 0 keeps the
 *  single-TU header so a one-TU design emits the historical text. */
std::string
tuHeader(const char *kind, const rtl::Design &d, size_t tu, size_t numTus)
{
    return "// " + std::string(kind) + " simulator for design '" +
           d.name() + "', translation unit " + dec(tu) + " of " +
           dec(numTus) + " — generated by strober codegen; do not edit.\n" +
           "#include <cstdint>\n\n";
}

/**
 * Append partition chunk @p c's eval function (signature
 * kChunkSignature). Each step stores its slot only when the value
 * changed, accumulating the consumer chunks' dirty bits in locals; the
 * accumulated words are ORed into the bitmap once at the end.
 */
void
emitChunkFn(std::string &out, const rtl::Design &d,
            const rtl::EvalPlan &plan, const rtl::EvalPartition &part,
            uint32_t c)
{
    out += "extern \"C\" void " + std::string(kChunkSymbolPrefix) + dec(c) +
           kChunkSignature + " {\n";
    out += "  (void)m; (void)d;\n";

    // Dirty words this chunk's outputs can touch, in first-use order.
    std::vector<uint32_t> usedWords;
    auto wordVar = [&](uint32_t word) {
        return "w" + dec(word);
    };
    std::string body;
    for (uint32_t i : part.chunks[c].steps) {
        const EvalStep &st = plan.hotProgram[i];
        StepParts p = stepParts(d, st);
        const std::string dst = slot(st.dst);

        // Consumer chunks of this step's slot, as (word, mask).
        std::vector<std::pair<uint32_t, uint64_t>> marks;
        for (uint32_t k = part.slotChunksBegin[st.dst];
             k < part.slotChunksBegin[st.dst + 1]; ++k) {
            uint32_t consumer = part.slotChunks[k];
            uint32_t word = consumer >> 6;
            uint64_t bit = 1ULL << (consumer & 63);
            if (!marks.empty() && marks.back().first == word)
                marks.back().second |= bit;
            else
                marks.emplace_back(word, bit);
        }
        if (marks.empty()) {
            // No cross-chunk consumer: a plain store suffices.
            if (p.prelude.empty())
                body += "  " + dst + " = " + p.expr + ";\n";
            else
                body += "  { " + p.prelude + dst + " = " + p.expr +
                        "; }\n";
            continue;
        }
        for (const auto &[word, mask] : marks) {
            if (std::find(usedWords.begin(), usedWords.end(), word) ==
                usedWords.end())
                usedWords.push_back(word);
        }
        body += "  { " + p.prelude + "const uint64_t nv = " + p.expr +
                "; if (" + dst + " != nv) { " + dst + " = nv;";
        for (const auto &[word, mask] : marks)
            body += " " + wordVar(word) + " |= " + hexU64(mask) + ";";
        body += " } }\n";
    }
    std::sort(usedWords.begin(), usedWords.end());
    for (uint32_t word : usedWords)
        out += "  uint64_t " + wordVar(word) + " = 0ull;\n";
    out += body;
    for (uint32_t word : usedWords)
        out += "  d[" + dec(word) + "] |= " + wordVar(word) + ";\n";
    out += "}\n\n";
}

} // namespace

std::vector<std::string>
emitSimulatorSource(const rtl::Design &d, const rtl::EvalPlan &plan)
{
    // Eval: the hot program as straight-line code, chunked so no one
    // function overwhelms the host compiler's per-function analyses.
    size_t numChunks =
        (plan.hotProgram.size() + kChunkStmts - 1) / kChunkStmts;
    std::vector<size_t> stmts(numChunks);
    for (size_t chunk = 0; chunk < numChunks; ++chunk)
        stmts[chunk] = std::min(kChunkStmts, plan.hotProgram.size() -
                                                 chunk * kChunkStmts);
    const std::vector<size_t> cuts = cutTus(stmts);
    const size_t numTus = cuts.size() - 1;
    // Functions called across TUs need external linkage; hidden
    // visibility keeps them out of the module's dynamic symbol table.
    const std::string linkage =
        numTus == 1 ? "static " : "__attribute__((visibility(\"hidden\"))) ";
    const std::string signature =
        "(uint64_t* __restrict__ s, uint64_t* const* __restrict__ m)";

    std::vector<std::string> tus(numTus);
    std::string &out = tus[0];
    out.reserve(64 * 1024);
    out += "// Specialized simulator for design '" + d.name() +
           "' — generated by strober codegen; do not edit.\n";
    out += "// slots=" + dec(plan.numSlots) +
           " hot=" + dec(plan.hotProgram.size()) +
           " folded=" + dec(plan.stats.folded) +
           " aliased=" + dec(plan.stats.aliased) +
           " cold=" + dec(plan.stats.cold) + "\n";
    out += "#include <cstdint>\n\n";
    for (size_t tu = 1; tu < numTus; ++tu)
        tus[tu] = tuHeader("Specialized", d, tu, numTus);

    for (size_t tu = 0; tu < numTus; ++tu) {
        for (size_t chunk = cuts[tu]; chunk < cuts[tu + 1]; ++chunk) {
            std::string &dst = tus[tu];
            dst += linkage + "void eval_" + dec(chunk) + signature + " {\n";
            dst += "  (void)m;\n";
            size_t lo = chunk * kChunkStmts;
            for (size_t i = lo; i < lo + stmts[chunk]; ++i)
                dst += stepStmt(d, plan.hotProgram[i]);
            dst += "}\n\n";
        }
    }

    // TU 0 declares the eval functions the other TUs define.
    for (size_t chunk = cuts[1]; chunk < numChunks; ++chunk)
        out += linkage + "void eval_" + dec(chunk) + signature + ";\n";
    if (cuts[1] < numChunks)
        out += "\n";
    out += "extern \"C\" void strober_eval(uint64_t* s, uint64_t* const* "
           "m) {\n";
    if (numChunks == 0)
        out += "  (void)s; (void)m;\n";
    for (size_t chunk = 0; chunk < numChunks; ++chunk)
        out += "  eval_" + dec(chunk) + "(s, m);\n";
    out += "}\n\n";

    emitCommit(out, d, plan);
    emitStamps(out, d, plan, 0);
    return tus;
}

std::vector<std::string>
emitPartitionedSource(const rtl::Design &d, const rtl::EvalPlan &plan,
                      const rtl::EvalPartition &part)
{
    const auto &hot = plan.hotProgram;
    const uint32_t numChunks = static_cast<uint32_t>(part.chunks.size());
    const uint32_t words = part.dirtyWords();

    std::vector<size_t> stmts(numChunks);
    for (uint32_t c = 0; c < numChunks; ++c)
        stmts[c] = part.chunks[c].steps.size();
    const std::vector<size_t> cuts = cutTus(stmts);
    const size_t numTus = cuts.size() - 1;

    std::vector<std::string> tus(numTus);
    std::string &out = tus[0];
    out.reserve(64 * 1024);
    out += "// Partitioned simulator for design '" + d.name() +
           "' — generated by strober codegen; do not edit.\n";
    out += "// slots=" + dec(plan.numSlots) + " hot=" + dec(hot.size()) +
           " chunks=" + dec(numChunks) + " levels=" +
           dec(part.numLevels()) + " clusters=" + dec(part.clusters) +
           "\n";
    out += "#include <cstdint>\n\n";
    for (size_t tu = 1; tu < numTus; ++tu)
        tus[tu] = tuHeader("Partitioned", d, tu, numTus);

    // One function per chunk, TU by TU.
    for (size_t tu = 0; tu < numTus; ++tu) {
        for (size_t c = cuts[tu]; c < cuts[tu + 1]; ++c)
            emitChunkFn(tus[tu], d, plan, part, static_cast<uint32_t>(c));
    }

    // TU 0 declares the chunks the other TUs define. Then the
    // sequential full sweep over all chunks (chunk ids are level-major,
    // hence topologically ordered); dirty marks land in a scratch
    // bitmap. The runtime uses this for whole-design sanity sweeps —
    // per-cycle evaluation drives the chunk functions directly.
    for (size_t c = cuts[1]; c < numChunks; ++c)
        out += "extern \"C\" void " + std::string(kChunkSymbolPrefix) +
               dec(c) + kChunkSignature + ";\n";
    if (cuts[1] < numChunks)
        out += "\n";
    out += "extern \"C\" void strober_eval(uint64_t* s, uint64_t* const* "
           "m) {\n";
    if (numChunks == 0) {
        out += "  (void)s; (void)m;\n";
    } else {
        out += "  uint64_t scratch[" + dec(words) + "] = {0};\n";
        for (uint32_t c = 0; c < numChunks; ++c)
            out += "  " + std::string(kChunkSymbolPrefix) + dec(c) +
                   "(s, m, scratch);\n";
    }
    out += "}\n\n";

    emitCommit(out, d, plan);
    emitStamps(out, d, plan, numChunks == 0 ? 0 : numChunks);
    return tus;
}

} // namespace codegen
} // namespace strober
