#include "sim/event_sim.hpp"

#include <algorithm>
#include <cstdlib>
#include <type_traits>

#include "analysis/const_eval.hpp"
#include "elaborate/elaborate.hpp"
#include "util/logging.hpp"
#include "verilog/ast_util.hpp"

namespace rtlrepair::sim {

using namespace verilog;
using analysis::ProcessInfo;
using bv::PackedValue;
using bv::Value;

namespace {

constexpr int kMaxDeltaRounds = 200;

/**
 * Per-net width cap for the packed simulator: a packed signal costs
 * 64x the one-lane footprint (two words per bit), so designs past
 * this fall back to the one-lane simulator instead of ballooning
 * memory.
 */
constexpr uint32_t kMaxVecNetWidth = 1u << 16;

template <typename V>
V
adjustWidth(V v, uint32_t w)
{
    if (v.width() < w)
        return v.zext(w);
    if (v.width() > w)
        return v.slice(w - 1, 0);
    return v;
}

// ----------------------------------------------------------------
// Lane operations: what differs between the two value types.  A
// bv::Value is one lane, so its lane masks use bit 0 only.
// ----------------------------------------------------------------

/** The same scalar value in every lane. */
template <typename V>
V broadcast(const Value &v);

template <>
Value
broadcast<Value>(const Value &v)
{
    return v;
}

template <>
PackedValue
broadcast<PackedValue>(const Value &v)
{
    return PackedValue::broadcast(v);
}

/** Per-lane pack of trace cells (null = all-X), resized to @p width. */
template <typename V>
V pack(const Value *const *vals, uint32_t n, uint32_t width);

template <>
Value
pack<Value>(const Value *const *vals, uint32_t, uint32_t width)
{
    return vals[0] ? adjustWidth(*vals[0], width) : Value::allX(width);
}

template <>
PackedValue
pack<PackedValue>(const Value *const *vals, uint32_t n, uint32_t width)
{
    return PackedValue::pack(vals, n, width);
}

const Value &
lane(const Value &v, uint32_t)
{
    return v;
}

Value
lane(const PackedValue &v, uint32_t l)
{
    return v.lane(l);
}

/** Lanes where both values are identical. */
uint64_t
laneEq(const Value &a, const Value &b)
{
    return a == b;
}

uint64_t
laneEq(const PackedValue &a, const PackedValue &b)
{
    return a.laneEq(b);
}

/** Lanes that are fully known and non-zero. */
uint64_t
laneTrue(const Value &v)
{
    return v.isNonZero();
}

uint64_t
laneTrue(const PackedValue &v)
{
    return v.laneTrue();
}

/** Lanes whose value matches trace cell @p expected[l] (null = X). */
uint64_t
laneMatches(const Value &got, const Value *const *expected, uint32_t)
{
    return !expected[0] || got.matches(*expected[0]);
}

uint64_t
laneMatches(const PackedValue &got, const Value *const *expected,
            uint32_t n)
{
    uint32_t w = got.width();
    for (uint32_t l = 0; l < n; ++l) {
        if (expected[l])
            w = std::max(w, expected[l]->width());
    }
    return got.laneMatches(PackedValue::pack(expected, n, w));
}

/** @p dst takes @p src in the lanes of @p mask. */
void
assignLanes(Value &dst, const Value &src, uint64_t mask)
{
    if (mask & 1)
        dst = src;
}

void
assignLanes(PackedValue &dst, const PackedValue &src, uint64_t mask)
{
    dst = PackedValue::blend(src, dst, mask);
}

/** Bit 0 of @p v as (value, unknown) lane planes, for edges. */
std::pair<uint64_t, uint64_t>
bit0(const Value &v)
{
    return {v.bitsWord(0) & 1, v.xmaskWord(0) & 1};
}

std::pair<uint64_t, uint64_t>
bit0(const PackedValue &v)
{
    return {v.valAt(0), v.unkAt(0)};
}

/** Bits from @p pos of @p dst take @p bits in the lanes of @p mask
 *  (clipped at the top of @p dst). */
void
setBits(Value &dst, uint32_t pos, const Value &bits, uint64_t mask)
{
    if (!(mask & 1))
        return;
    for (uint32_t b = 0; b < bits.width() && pos + b < dst.width(); ++b)
        dst.setBit(pos + b, bits.bit(b));
}

void
setBits(PackedValue &dst, uint32_t pos, const PackedValue &bits,
        uint64_t mask)
{
    for (uint32_t b = 0; b < bits.width() && pos + b < dst.width(); ++b)
        dst.setBitLanes(pos + b, bits.valAt(b), bits.unkAt(b), mask);
}

/**
 * Bit `idx - lsb_off` of @p dst takes the 1-bit @p bit, in the lanes
 * of @p mask whose index is known and in range (the others write
 * nothing).  The index reads its low 64 bits, like toUint64.
 */
void
setIndexedBit(Value &dst, const Value &idx, int64_t lsb_off,
              const Value &bit, uint64_t mask)
{
    if (!(mask & 1) || idx.hasX())
        return;
    int64_t p = static_cast<int64_t>(idx.toUint64()) - lsb_off;
    if (p >= 0 && p < static_cast<int64_t>(dst.width()))
        dst.setBit(static_cast<uint32_t>(p), bit.bit(0));
}

void
setIndexedBit(PackedValue &dst, const PackedValue &idx, int64_t lsb_off,
              const PackedValue &bit, uint64_t mask)
{
    for (uint32_t pos = 0; pos < dst.width(); ++pos) {
        uint64_t m = mask & idx.laneEqUint(static_cast<uint64_t>(
                                static_cast<int64_t>(pos) + lsb_off));
        if (m)
            dst.setBitLanes(pos, bit.valAt(0), bit.unkAt(0), m);
    }
}

/** Bit `idx - lsb_off` of @p base; X where the index is X or out of
 *  range. */
Value
indexedBit(const Value &base, const Value &idx, int64_t lsb_off)
{
    if (idx.hasX())
        return Value::allX(1);
    int64_t pos = static_cast<int64_t>(idx.toUint64()) - lsb_off;
    if (pos < 0 || pos >= static_cast<int64_t>(base.width()))
        return Value::allX(1);
    return base.slice(static_cast<uint32_t>(pos),
                      static_cast<uint32_t>(pos));
}

PackedValue
indexedBit(const PackedValue &base, const PackedValue &idx,
           int64_t lsb_off)
{
    PackedValue res = PackedValue::allX(1);
    for (uint32_t pos = 0; pos < base.width(); ++pos) {
        uint64_t m = idx.laneEqUint(static_cast<uint64_t>(
            static_cast<int64_t>(pos) + lsb_off));
        if (m)
            res.setBitLanes(0, base.valAt(pos), base.unkAt(pos), m);
    }
    return res;
}

/**
 * Mismatching bits of one (value, unknown) word pair per case mode:
 * casez treats label X/Z bits as wildcards (an X subject bit against
 * a known label bit mismatches), casex also the subject's X bits.
 */
uint64_t
caseMismatch(uint64_t sv, uint64_t su, uint64_t lv, uint64_t lu,
             CaseStmt::Mode mode)
{
    switch (mode) {
      case CaseStmt::Mode::Plain:
        return (sv ^ lv) | (su ^ lu);
      case CaseStmt::Mode::CaseZ:
        return ~lu & (su | (sv ^ lv));
      case CaseStmt::Mode::CaseX:
        return ~lu & ~su & (sv ^ lv);
    }
    return ~0ull;
}

/** Lanes where @p label matches @p subject under @p mode. */
uint64_t
caseMatch(const Value &subject, const Value &label, CaseStmt::Mode mode)
{
    check(subject.width() == label.width(), "caseEq: width mismatch");
    // Canonical values keep the bits above the width zero.
    for (size_t i = 0; i * 64 < subject.width(); ++i) {
        if (caseMismatch(subject.bitsWord(i), subject.xmaskWord(i),
                         label.bitsWord(i), label.xmaskWord(i), mode))
            return 0;
    }
    return 1;
}

uint64_t
caseMatch(const PackedValue &subject, const PackedValue &label,
          CaseStmt::Mode mode)
{
    check(subject.width() == label.width(), "caseEq: width mismatch");
    uint64_t mismatch = 0;
    for (uint32_t p = 0; p < subject.width(); ++p) {
        mismatch |= caseMismatch(subject.valAt(p), subject.unkAt(p),
                                 label.valAt(p), label.unkAt(p), mode);
    }
    return ~mismatch;
}

} // namespace

// ----------------------------------------------------------------
// The simulator.
// ----------------------------------------------------------------

template <typename V>
EventSim<V>::EventSim(const Module &mod,
                      const std::vector<const Module *> &library,
                      std::string clock, uint32_t nlanes,
                      bool reverse_order)
    : _clock(std::move(clock))
{
    uint32_t max_lanes =
        std::is_same_v<V, Value> ? 1 : PackedValue::kLanes;
    check(nlanes >= 1 && nlanes <= max_lanes, "lane count out of range");
    _all = nlanes == 64 ? ~0ull : ((1ull << nlanes) - 1ull);

    elaborate::ElaborateOptions opts;
    opts.library = library;
    _mod = elaborate::flattenHierarchy(mod, opts);
    _table = analysis::SymbolTable::build(*_mod);
    if constexpr (std::is_same_v<V, PackedValue>) {
        for (const auto &[name, range] : _table.nets()) {
            if (range.width > kMaxVecNetWidth) {
                throw VecUnsupported("net too wide for vectorized "
                                     "simulation: " +
                                     name);
            }
        }
    }

    for (const auto &item : _mod->items) {
        if (item->kind == Item::Kind::Always) {
            const auto &blk = static_cast<const AlwaysBlock &>(*item);
            Proc proc;
            proc.block = &blk;
            proc.info = analysis::analyzeProcess(blk);
            proc.body = blk.body->clone();
            analysis::unrollFors(proc.body, _table.params());
            _procs.push_back(std::move(proc));
        } else if (item->kind == Item::Kind::ContAssign) {
            const auto *assign =
                static_cast<const ContAssign *>(item.get());
            _cont_assigns.push_back(assign);
            std::set<std::string> reads;
            collectIdents(*assign->rhs, reads);
            if (assign->lhs->kind != Expr::Kind::Ident)
                collectIdents(*assign->lhs, reads);
            _cont_reads.push_back(std::move(reads));
        }
    }
    if (reverse_order)
        std::reverse(_procs.begin(), _procs.end());
    powerOn();
}

template <typename V>
void
EventSim<V>::powerOn()
{
    _values.clear();
    _prev.clear();
    _changed.clear();
    _nba.clear();
    _sampled.clear();
    _unstable = 0;
    _frozen = 0;
    for (const auto &[name, range] : _table.nets()) {
        _values.emplace(name, V::allX(range.width));
        _prev.emplace(name, V::allX(range.width));
    }
    runInitialBlocks();
    // Evaluate all continuous assigns and comb processes once.
    for (const auto &[name, range] : _table.nets()) {
        (void)range;
        _changed[name] = _all;
    }
    settle();
}

template <typename V>
void
EventSim<V>::runInitialBlocks()
{
    for (const auto &item : _mod->items) {
        if (item->kind != Item::Kind::Initial)
            continue;
        const auto &blk = static_cast<const InitialBlock &>(*item);
        StmtPtr body = blk.body->clone();
        analysis::unrollFors(body, _table.params());
        execStmt(*body, _all);
    }
    // Apply any non-blocking writes from initial blocks.
    for (const auto &[name, q] : _nba)
        writeSignal(name, q.value, q.lanes);
    _nba.clear();
}

template <typename V>
void
EventSim<V>::setInput(const std::string &name, const V &value,
                      uint64_t mask)
{
    uint32_t w = _table.widthOf(name);
    if (value.width() == w)
        writeSignal(name, value, mask);
    else
        writeSignal(name, adjustWidth(value, w), mask);
}

template <typename V>
const V &
EventSim<V>::get(const std::string &name) const
{
    auto it = _values.find(name);
    check(it != _values.end(), "unknown signal: " + name);
    return it->second;
}

template <typename V>
const V &
EventSim<V>::sampledOutput(const std::string &name) const
{
    auto it = _sampled.find(name);
    check(it != _sampled.end(), "output was not sampled: " + name);
    return it->second;
}

template <typename V>
uint32_t
EventSim<V>::widthOf(const std::string &name) const
{
    return _table.widthOf(name);
}

template <typename V>
void
EventSim<V>::writeSignal(const std::string &name, const V &value,
                         uint64_t mask)
{
    mask &= _all & ~_frozen;
    if (!mask)
        return;
    auto it = _values.find(name);
    check(it != _values.end(), "write to unknown signal: " + name);
    uint64_t diff = ~laneEq(it->second, value) & mask;
    if (!diff)
        return;
    assignLanes(it->second, value, diff);
    _changed[name] |= diff;
}

template <typename V>
void
EventSim<V>::step()
{
    static const V clk0 = broadcast<V>(Value::fromUint(1, 0));
    static const V clk1 = broadcast<V>(Value::fromUint(1, 1));
    if (!_clock.empty())
        setInput(_clock, clk0, _all);
    settle();
    // Sample outputs before the rising edge.
    _sampled.clear();
    for (const auto &port : _mod->ports) {
        if (port.dir == PortDir::Output)
            _sampled.emplace(port.name, get(port.name));
    }
    if (!_clock.empty()) {
        setInput(_clock, clk1, _all);
        settle();
    }
}

template <typename V>
void
EventSim<V>::settleOnly()
{
    settle();
    _sampled.clear();
    for (const auto &port : _mod->ports) {
        if (port.dir == PortDir::Output)
            _sampled.emplace(port.name, get(port.name));
    }
}

template <typename V>
void
EventSim<V>::settle()
{
    // Each live lane independently follows the delta-cycle loop: a
    // lane with pending changes processes its batch this round, a
    // lane with only queued NBAs applies them this round, a lane with
    // neither is settled.  Because a write in one lane can never mark
    // a *different* lane changed, a settled lane stays settled, so
    // every still-active lane has been active since round 0 and the
    // global round counter doubles as each lane's own.
    uint64_t live = _all & ~_frozen;
    for (int round = 0;; ++round) {
        uint64_t changed = 0;
        for (const auto &[name, m] : _changed)
            changed |= m;
        changed &= live;
        uint64_t nba_lanes = 0;
        for (const auto &[name, q] : _nba)
            nba_lanes |= q.lanes;
        nba_lanes &= live;
        uint64_t nba_now = nba_lanes & ~changed;
        uint64_t active = changed | nba_now;
        if (!active)
            return;
        if (round >= kMaxDeltaRounds) {
            _unstable |= active;
            // Info, not Warn: oscillating *mutants* are routine during
            // the genetic baseline's search; callers inspect
            // unstable().
            logMessage(LogLevel::Info,
                       "event simulation did not settle "
                       "(oscillation)");
            return;
        }

        // Take this round's batch (only the lanes processing one).
        // The maps are taken whole and only the lanes left for a later
        // round go back, so a round in which every pending lane is
        // active (always, for one lane) moves no map entry.
        std::map<std::string, uint64_t> batch;
        batch.swap(_changed);
        for (auto it = batch.begin(); it != batch.end();) {
            if (uint64_t rest = it->second & ~changed)
                _changed.emplace(it->first, rest);
            it->second &= changed;
            it = it->second ? std::next(it) : batch.erase(it);
        }

        // NBA region for the lanes with nothing else pending; the
        // writes land in _changed and are processed next round.
        if (nba_now) {
            std::map<std::string, Nba> nba;
            nba.swap(_nba);
            for (auto &[name, q] : nba) {
                if (uint64_t m = q.lanes & nba_now)
                    writeSignal(name, q.value, m);
                if (q.lanes & ~nba_now) {
                    q.lanes &= ~nba_now;
                    _nba.emplace(name, std::move(q));
                }
            }
        }
        if (batch.empty())
            continue;

        // Edge detection on bit 0 of each batched signal.
        std::map<std::string, Transition> transitions;
        for (const auto &[name, m] : batch) {
            const V &now = _values.at(name);
            V &old = _prev.at(name);
            auto [nv, nu] = bit0(now);
            auto [ov, ou] = bit0(old);
            Transition t;
            t.pose = m & nv & ~ov;
            t.nege = m & ~nv & ~nu & (ov | ou);
            t.level = m & ((nv ^ ov) | (nu ^ ou));
            transitions.emplace(name, t);
            assignLanes(old, now, m);
        }

        // Continuous assignments sensitive to the batch.
        for (size_t ai = 0; ai < _cont_assigns.size(); ++ai) {
            const ContAssign *assign = _cont_assigns[ai];
            uint64_t hit = 0;
            for (const auto &name : _cont_reads[ai]) {
                auto it = batch.find(name);
                if (it != batch.end())
                    hit |= it->second;
            }
            if (!hit)
                continue;
            std::string target = analysis::lhsBaseName(*assign->lhs);
            uint32_t ctx = _table.widthOf(target);
            assignNow(*assign->lhs, evalExpr(*assign->rhs, ctx), hit);
        }

        // Processes.
        for (const Proc &proc : _procs) {
            uint64_t trig = 0;
            if (proc.info.kind == ProcessInfo::Kind::Clocked) {
                for (const auto &sens : proc.block->sensitivity) {
                    auto t = transitions.find(sens.signal);
                    if (t == transitions.end())
                        continue;
                    if (sens.edge == SensItem::Edge::Posedge)
                        trig |= t->second.pose;
                    else if (sens.edge == SensItem::Edge::Negedge)
                        trig |= t->second.nege;
                    else if (sens.edge == SensItem::Edge::Level)
                        trig |= t->second.level;
                }
            } else {
                bool star = false;
                for (const auto &sens : proc.block->sensitivity) {
                    if (sens.edge == SensItem::Edge::Star)
                        star = true;
                }
                const std::set<std::string> &watch =
                    star ? proc.info.read : proc.info.listed;
                for (const auto &name : watch) {
                    auto it = batch.find(name);
                    if (it != batch.end())
                        trig |= it->second;
                }
            }
            if (trig)
                runProcess(proc, trig);
        }
    }
}

template <typename V>
void
EventSim<V>::runProcess(const Proc &proc, uint64_t mask)
{
    // A process evaluates atomically per lane: only signals whose
    // value at the END of the run differs from their value BEFORE the
    // run count as changed.  (Intermediate blocking writes — e.g. the
    // running value of an unrolled accumulation loop — must not
    // re-trigger the process itself, or self-reading processes would
    // oscillate.)
    std::map<std::string, V> pre;
    for (const auto &name : proc.info.assigned) {
        auto it = _values.find(name);
        if (it != _values.end())
            pre.emplace(name, it->second);
    }
    execStmt(*proc.body, mask);
    for (const auto &[name, before] : pre) {
        uint64_t same = mask & laneEq(before, _values.at(name));
        if (!same)
            continue;
        auto it = _changed.find(name);
        if (it == _changed.end())
            continue;
        it->second &= ~same;
        if (it->second == 0)
            _changed.erase(it);
    }
}

template <typename V>
void
EventSim<V>::execStmt(const Stmt &stmt, uint64_t mask)
{
    if (!mask)
        return;
    switch (stmt.kind) {
      case Stmt::Kind::Block:
        for (const auto &s : static_cast<const BlockStmt &>(stmt).stmts)
            execStmt(*s, mask);
        return;
      case Stmt::Kind::If: {
        const auto &i = static_cast<const IfStmt &>(stmt);
        // X condition lanes take the else branch (cond is not true).
        uint64_t t = laneTrue(evalExpr(*i.cond, 0)) & mask;
        execStmt(*i.then_stmt, t);
        if (i.else_stmt)
            execStmt(*i.else_stmt, mask & ~t);
        return;
      }
      case Stmt::Kind::Case: {
        const auto &c = static_cast<const CaseStmt &>(stmt);
        uint32_t ctx = analysis::exprWidth(*c.subject, _table);
        for (const auto &item : c.items) {
            for (const auto &label : item.labels) {
                ctx = std::max(ctx,
                               analysis::exprWidth(*label, _table));
            }
        }
        V subject = evalExpr(*c.subject, ctx);
        if (subject.width() < ctx)
            subject = subject.zext(ctx);
        uint64_t remaining = mask;
        for (const auto &item : c.items) {
            uint64_t hit = 0;
            for (const auto &label : item.labels) {
                if (!remaining)
                    break;
                V lv = adjustWidth(evalExpr(*label, ctx), ctx);
                hit |= remaining & caseMatch(subject, lv, c.mode);
                remaining &= ~hit;
            }
            if (hit)
                execStmt(*item.body, hit);
        }
        if (c.default_body && remaining)
            execStmt(*c.default_body, remaining);
        return;
      }
      case Stmt::Kind::Assign: {
        const auto &a = static_cast<const AssignStmt &>(stmt);
        auto assign = [&](const Expr &lhs, const V &value) {
            if (a.blocking)
                assignNow(lhs, value, mask);
            else
                queueNba(lhs, value, mask);
        };
        if (a.lhs->kind != Expr::Kind::Concat) {
            assign(*a.lhs, evalExpr(*a.rhs, lhsWidth(*a.lhs)));
            return;
        }
        // A concatenated target splits the RHS into one piece per
        // part, high part first; each piece is assigned like a target
        // of its own.
        const auto &parts = static_cast<const ConcatExpr &>(*a.lhs).parts;
        std::vector<uint32_t> widths;
        uint32_t total = 0;
        for (const auto &part : parts) {
            widths.push_back(lhsWidth(*part));
            total += widths.back();
        }
        V rhs = adjustWidth(evalExpr(*a.rhs, total), total);
        uint32_t off = total;
        for (size_t i = 0; i < parts.size(); ++i) {
            off -= widths[i];
            assign(*parts[i], rhs.slice(off + widths[i] - 1, off));
        }
        return;
      }
      case Stmt::Kind::Empty:
        return;
      case Stmt::Kind::For:
        panic("for-loops are unrolled before event simulation");
    }
}

template <typename V>
uint32_t
EventSim<V>::lhsWidth(const Expr &lhs) const
{
    switch (lhs.kind) {
      case Expr::Kind::Ident:
        return _table.widthOf(static_cast<const IdentExpr &>(lhs).name);
      case Expr::Kind::Index:
        return 1;
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(lhs);
        int64_t msb = analysis::constEvalInt(*r.msb, _table.params());
        int64_t lsb = analysis::constEvalInt(*r.lsb, _table.params());
        return static_cast<uint32_t>(std::llabs(msb - lsb)) + 1u;
      }
      default:
        fatal("unsupported assignment target in event simulation");
    }
}

template <typename V>
V
EventSim<V>::nbaTarget(const std::string &name) const
{
    V target = _values.at(name);
    auto it = _nba.find(name);
    if (it != _nba.end())
        assignLanes(target, it->second.value, it->second.lanes);
    return target;
}

/**
 * Write @p value into the bits of signal @p name (current value
 * @p full) that the select @p lhs picks, in the lanes of @p mask.  An
 * X or out-of-range index, or a range wholly above the signal, writes
 * nothing.
 */
template <typename V>
void
EventSim<V>::writeSelect(const Expr &lhs, const std::string &name,
                         V &full, const V &value, uint64_t mask) const
{
    int64_t lsb_off = _table.rangeOf(name).lsb;
    switch (lhs.kind) {
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(lhs);
        int64_t msb =
            analysis::constEvalInt(*r.msb, _table.params()) - lsb_off;
        int64_t lsb =
            analysis::constEvalInt(*r.lsb, _table.params()) - lsb_off;
        if (msb < lsb)
            std::swap(msb, lsb);
        uint32_t pos = static_cast<uint32_t>(std::max<int64_t>(lsb, 0));
        uint32_t width = static_cast<uint32_t>(msb - lsb + 1);
        if (pos < full.width())
            setBits(full, pos, adjustWidth(value, width), mask);
        return;
      }
      case Expr::Kind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(lhs);
        setIndexedBit(full, evalExpr(*ix.index, 0), lsb_off,
                      adjustWidth(value, 1), mask);
        return;
      }
      default:
        fatal("unsupported assignment target in event simulation");
    }
}

template <typename V>
void
EventSim<V>::assignNow(const Expr &lhs, const V &value, uint64_t mask)
{
    std::string name = analysis::lhsBaseName(lhs);
    if (lhs.kind == Expr::Kind::Ident) {
        writeSignal(name, adjustWidth(value, _table.widthOf(name)),
                    mask);
        return;
    }
    V full = _values.at(name);
    writeSelect(lhs, name, full, value, mask);
    writeSignal(name, full, mask);
}

/**
 * Queue a non-blocking write: the RHS and any select index read
 * pre-edge values now; the merged full-signal value (per lane) is
 * queued for the NBA region.
 */
template <typename V>
void
EventSim<V>::queueNba(const Expr &lhs, const V &rhs, uint64_t mask)
{
    std::string name = analysis::lhsBaseName(lhs);
    V target = nbaTarget(name);
    if (lhs.kind == Expr::Kind::Ident)
        assignLanes(target, adjustWidth(rhs, target.width()), mask);
    else
        writeSelect(lhs, name, target, rhs, mask);
    Nba &q = _nba[name];
    q.value = std::move(target);
    q.lanes |= mask;
}

template <typename V>
V
EventSim<V>::evalExpr(const Expr &expr, uint32_t ctx) const
{
    switch (expr.kind) {
      case Expr::Kind::Ident: {
        const auto &name = static_cast<const IdentExpr &>(expr).name;
        auto param = _table.params().find(name);
        if (param != _table.params().end())
            return broadcast<V>(param->second);
        auto it = _values.find(name);
        check(it != _values.end(), "read of unknown signal: " + name);
        return it->second;
      }
      case Expr::Kind::Literal:
        return broadcast<V>(static_cast<const LiteralExpr &>(expr).value);
      case Expr::Kind::Call:
        panic("function call survived lowering");
      case Expr::Kind::Unary: {
        const auto &u = static_cast<const UnaryExpr &>(expr);
        switch (u.op) {
          case UnaryOp::BitNot: {
            V v = evalExpr(*u.operand, ctx);
            if (v.width() < ctx)
                v = v.zext(ctx);
            return ~v;
          }
          case UnaryOp::LogicNot:
            return ~evalExpr(*u.operand, 0).redOr();
          case UnaryOp::Minus: {
            V v = evalExpr(*u.operand, ctx);
            if (v.width() < ctx)
                v = v.zext(ctx);
            return v.negate();
          }
          case UnaryOp::Plus:
            return evalExpr(*u.operand, ctx);
          case UnaryOp::RedAnd:
            return evalExpr(*u.operand, 0).redAnd();
          case UnaryOp::RedOr:
            return evalExpr(*u.operand, 0).redOr();
          case UnaryOp::RedXor:
            return evalExpr(*u.operand, 0).redXor();
          case UnaryOp::RedNand:
            return ~evalExpr(*u.operand, 0).redAnd();
          case UnaryOp::RedNor:
            return ~evalExpr(*u.operand, 0).redOr();
          case UnaryOp::RedXnor:
            return ~evalExpr(*u.operand, 0).redXor();
        }
        panic("bad unary op");
      }
      case Expr::Kind::Binary:
        return evalBinary(static_cast<const BinaryExpr &>(expr), ctx);
      case Expr::Kind::Ternary: {
        const auto &t = static_cast<const TernaryExpr &>(expr);
        V cond = evalExpr(*t.cond, 0).redOr();
        V a = evalExpr(*t.then_expr, ctx);
        V b = evalExpr(*t.else_expr, ctx);
        uint32_t w = std::max({a.width(), b.width(), ctx});
        if (a.width() < w)
            a = a.zext(w);
        if (b.width() < w)
            b = b.zext(w);
        return V::ite(cond, a, b);
      }
      case Expr::Kind::Concat: {
        const auto &c = static_cast<const ConcatExpr &>(expr);
        V acc;
        bool first = true;
        for (const auto &part : c.parts) {
            V v = evalExpr(*part, 0);
            acc = first ? v : acc.concat(v);
            first = false;
        }
        return acc;
      }
      case Expr::Kind::Repl: {
        const auto &r = static_cast<const ReplExpr &>(expr);
        int64_t count =
            analysis::constEvalInt(*r.count, _table.params());
        return evalExpr(*r.inner, 0)
            .replicate(static_cast<uint32_t>(count));
      }
      case Expr::Kind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(expr);
        V base = evalExpr(*ix.base, 0);
        int64_t lsb_off = 0;
        if (ix.base->kind == Expr::Kind::Ident) {
            const auto &name =
                static_cast<const IdentExpr &>(*ix.base).name;
            if (_table.isNet(name))
                lsb_off = _table.rangeOf(name).lsb;
        }
        return indexedBit(base, evalExpr(*ix.index, 0), lsb_off);
      }
      case Expr::Kind::RangeSelect: {
        const auto &r = static_cast<const RangeSelectExpr &>(expr);
        V base = evalExpr(*r.base, 0);
        int64_t lsb_off = 0;
        if (r.base->kind == Expr::Kind::Ident) {
            const auto &name =
                static_cast<const IdentExpr &>(*r.base).name;
            if (_table.isNet(name))
                lsb_off = _table.rangeOf(name).lsb;
        }
        int64_t msb =
            analysis::constEvalInt(*r.msb, _table.params()) - lsb_off;
        int64_t lsb =
            analysis::constEvalInt(*r.lsb, _table.params()) - lsb_off;
        if (msb < lsb)
            std::swap(msb, lsb);
        if (lsb < 0 || msb >= base.width())
            return V::allX(static_cast<uint32_t>(msb - lsb + 1));
        return base.slice(static_cast<uint32_t>(msb),
                          static_cast<uint32_t>(lsb));
      }
    }
    panic("unknown expression kind");
}

template <typename V>
V
EventSim<V>::evalBinary(const BinaryExpr &b, uint32_t ctx) const
{
    auto harmonized = [](uint32_t w, V &x, V &y) {
        x = adjustWidth(std::move(x), w);
        y = adjustWidth(std::move(y), w);
    };

    switch (b.op) {
      case BinaryOp::LogicAnd:
        return evalExpr(*b.lhs, 0).redOr() &
               evalExpr(*b.rhs, 0).redOr();
      case BinaryOp::LogicOr:
        return evalExpr(*b.lhs, 0).redOr() |
               evalExpr(*b.rhs, 0).redOr();
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::CaseEq:
      case BinaryOp::CaseNe: {
        uint32_t w = std::max(analysis::exprWidth(*b.lhs, _table),
                              analysis::exprWidth(*b.rhs, _table));
        V lhs = evalExpr(*b.lhs, w);
        V rhs = evalExpr(*b.rhs, w);
        w = std::max({w, lhs.width(), rhs.width()});
        harmonized(w, lhs, rhs);
        switch (b.op) {
          case BinaryOp::Lt: return lhs.ult(rhs);
          case BinaryOp::Le: return lhs.ule(rhs);
          case BinaryOp::Gt: return rhs.ult(lhs);
          case BinaryOp::Ge: return rhs.ule(lhs);
          case BinaryOp::Eq: return lhs.eq(rhs);
          case BinaryOp::Ne: return lhs.ne(rhs);
          case BinaryOp::CaseEq: return lhs.caseEq(rhs);
          default: return ~lhs.caseEq(rhs);
        }
      }
      case BinaryOp::Shl:
      case BinaryOp::Shr:
      case BinaryOp::AShr: {
        V lhs = evalExpr(*b.lhs, ctx);
        V amount = evalExpr(*b.rhs, 0);
        harmonized(std::max(lhs.width(), ctx), lhs, amount);
        switch (b.op) {
          case BinaryOp::Shl: return lhs.shl(amount);
          case BinaryOp::Shr: return lhs.lshr(amount);
          default: return lhs.ashr(amount);
        }
      }
      default:
        break;
    }

    V lhs = evalExpr(*b.lhs, ctx);
    V rhs = evalExpr(*b.rhs, ctx);
    harmonized(std::max({lhs.width(), rhs.width(), ctx}), lhs, rhs);
    switch (b.op) {
      case BinaryOp::Add: return lhs + rhs;
      case BinaryOp::Sub: return lhs - rhs;
      case BinaryOp::Mul: return lhs * rhs;
      case BinaryOp::Div: return lhs.udiv(rhs);
      case BinaryOp::Mod: return lhs.urem(rhs);
      case BinaryOp::BitAnd: return lhs & rhs;
      case BinaryOp::BitOr: return lhs | rhs;
      case BinaryOp::BitXor: return lhs ^ rhs;
      case BinaryOp::BitXnor: return ~(lhs ^ rhs);
      default:
        panic("unhandled binary op");
    }
}

template class EventSim<Value>;
template class EventSim<PackedValue>;

// ----------------------------------------------------------------
// Replay and record drivers: lane l of the simulator runs item l.
// ----------------------------------------------------------------

namespace {

bool
sameColumns(const std::vector<trace::Column> &a,
            const std::vector<trace::Column> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const trace::Column &x, const trace::Column &y) {
                          return x.name == y.name && x.width == y.width;
                      });
}

bool
sameColumns(const trace::IoTrace &a, const trace::IoTrace &b)
{
    return sameColumns(a.inputs, b.inputs) &&
           sameColumns(a.outputs, b.outputs);
}

bool
sameColumns(const trace::InputSequence &a, const trace::InputSequence &b)
{
    return sameColumns(a.inputs, b.inputs);
}

/**
 * One cycle in the lanes of @p active: lane l drives the input row
 * `row(l)` (null once its item has ended), then the clock steps, or
 * the logic settles when there is no clock.
 */
template <typename V, typename RowOf>
void
driveCycle(EventSim<V> &sim, const std::string &clock,
           const std::vector<trace::Column> &in_cols, uint64_t active,
           std::vector<const Value *> &vptr, RowOf row)
{
    uint32_t n = static_cast<uint32_t>(vptr.size());
    for (size_t i = 0; i < in_cols.size(); ++i) {
        if (in_cols[i].name == clock)
            continue;
        for (uint32_t l = 0; l < n; ++l) {
            const std::vector<Value> *r = row(l);
            vptr[l] = r ? &(*r)[i] : nullptr;
        }
        sim.setInput(in_cols[i].name,
                     pack<V>(vptr.data(), n, sim.widthOf(in_cols[i].name)),
                     active);
    }
    if (clock.empty())
        sim.settleOnly();
    else
        sim.step();
}

/** Replay traces[l] in lane l; result l goes to out[l]. */
template <typename V>
void
runLanes(EventSim<V> &sim, const Module &, const std::string &clock,
         const std::vector<const trace::IoTrace *> &traces,
         ReplayResult *out)
{
    uint32_t n = static_cast<uint32_t>(traces.size());
    std::vector<size_t> len(n);
    size_t max_len = 0;
    uint64_t done = 0;
    for (uint32_t l = 0; l < n; ++l) {
        len[l] = traces[l]->length();
        max_len = std::max(max_len, len[l]);
        if (len[l] == 0) {
            out[l].first_failure = 0; // passed, empty trace
            done |= 1ull << l;
        }
    }
    sim.freezeLanes(done);

    // The lanes of @p lanes fail at @p cycle on output @p name.
    auto fail = [&](uint64_t lanes, size_t cycle,
                    const std::string &name) {
        for (uint32_t l = 0; l < n; ++l) {
            if (!((lanes >> l) & 1))
                continue;
            out[l].passed = false;
            out[l].first_failure = cycle;
            out[l].failed_output = name;
        }
        done |= lanes;
        sim.freezeLanes(lanes);
    };

    const auto &out_cols = traces[0]->outputs;
    std::vector<const Value *> vptr(n, nullptr);
    for (size_t cycle = 0; cycle < max_len; ++cycle) {
        uint64_t active = sim.allLanes() & ~done;
        if (!active)
            break;
        driveCycle(sim, clock, traces[0]->inputs, active, vptr,
                   [&](uint32_t l) {
                       return cycle < len[l] ? &traces[l]->input_rows[cycle]
                                             : nullptr;
                   });
        uint64_t unstable = sim.unstableLanes() & active;
        if (unstable) {
            fail(unstable, cycle, "<oscillation>");
            active &= ~unstable;
        }
        for (size_t i = 0; i < out_cols.size() && active; ++i) {
            for (uint32_t l = 0; l < n; ++l) {
                vptr[l] = cycle < len[l]
                              ? &traces[l]->output_rows[cycle][i]
                              : nullptr;
            }
            uint64_t mismatch =
                active & ~laneMatches(sim.sampledOutput(out_cols[i].name),
                                      vptr.data(), n);
            if (mismatch) {
                fail(mismatch, cycle, out_cols[i].name);
                active &= ~mismatch;
            }
        }
        uint64_t finished = 0;
        for (uint32_t l = 0; l < n; ++l) {
            if (((active >> l) & 1) && cycle + 1 == len[l]) {
                finished |= 1ull << l;
                out[l].first_failure = len[l]; // passed
            }
        }
        done |= finished;
        sim.freezeLanes(finished);
    }
}

/** Record the outputs of stims[l] in lane l into out[l]. */
template <typename V>
void
runLanes(EventSim<V> &sim, const Module &mod, const std::string &clock,
         const std::vector<const trace::InputSequence *> &stims,
         trace::IoTrace *out)
{
    uint32_t n = static_cast<uint32_t>(stims.size());
    std::vector<trace::Column> out_cols;
    for (const auto &port : mod.ports) {
        if (port.dir == PortDir::Output) {
            out_cols.push_back(trace::Column{
                port.name, sim.get(port.name).width()});
        }
    }
    std::vector<size_t> len(n);
    size_t max_len = 0;
    uint64_t done = 0;
    for (uint32_t l = 0; l < n; ++l) {
        out[l].inputs = stims[l]->inputs;
        out[l].outputs = out_cols;
        len[l] = stims[l]->length();
        max_len = std::max(max_len, len[l]);
        if (len[l] == 0)
            done |= 1ull << l;
    }
    sim.freezeLanes(done);

    std::vector<const Value *> vptr(n, nullptr);
    std::vector<const V *> samples(out_cols.size());
    for (size_t cycle = 0; cycle < max_len; ++cycle) {
        uint64_t active = sim.allLanes() & ~done;
        if (!active)
            break;
        driveCycle(sim, clock, stims[0]->inputs, active, vptr,
                   [&](uint32_t l) {
                       return cycle < len[l] ? &stims[l]->rows[cycle]
                                             : nullptr;
                   });
        for (size_t i = 0; i < out_cols.size(); ++i)
            samples[i] = &sim.sampledOutput(out_cols[i].name);
        uint64_t finished = 0;
        for (uint32_t l = 0; l < n; ++l) {
            if (!((active >> l) & 1))
                continue;
            out[l].input_rows.push_back(stims[l]->rows[cycle]);
            std::vector<Value> row;
            row.reserve(samples.size());
            for (const V *s : samples)
                row.push_back(lane(*s, l));
            out[l].output_rows.push_back(std::move(row));
            if (cycle + 1 == len[l])
                finished |= 1ull << l;
        }
        done |= finished;
        sim.freezeLanes(finished);
    }
}

/**
 * Run @p items (traces to replay or stimuli to record).  With
 * @p packed, chunks of up to 64 run on VecEventSimulator; a chunk
 * whose items disagree on columns, or whose design throws
 * VecUnsupported, runs item by item on EventSimulator instead.
 */
template <typename Result, typename Item>
std::vector<Result>
runItems(const Module &mod, const std::vector<const Module *> &library,
         const std::string &clock, const std::vector<const Item *> &items,
         bool packed)
{
    std::vector<Result> out(items.size());
    for (size_t base = 0; base < items.size();
         base += PackedValue::kLanes) {
        size_t n = std::min<size_t>(PackedValue::kLanes,
                                    items.size() - base);
        std::vector<const Item *> chunk(items.begin() + base,
                                        items.begin() + base + n);
        bool compatible =
            std::all_of(chunk.begin(), chunk.end(), [&](const Item *it) {
                return sameColumns(*it, *chunk[0]);
            });
        if (packed && compatible) {
            try {
                VecEventSimulator sim(mod, library, clock,
                                      static_cast<uint32_t>(n));
                runLanes(sim, mod, clock, chunk, out.data() + base);
                continue;
            } catch (const VecUnsupported &) {
                // fall through to the one-lane simulator
            }
        }
        for (size_t i = 0; i < n; ++i) {
            EventSimulator sim(mod, library, clock);
            runLanes(sim, mod, clock, {chunk[i]}, &out[base + i]);
        }
    }
    return out;
}

} // namespace

ReplayResult
eventReplay(const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::IoTrace &io,
            bool reverse_order)
{
    ReplayResult result;
    EventSimulator sim(mod, library, clock, reverse_order);
    runLanes(sim, mod, clock, {&io}, &result);
    return result;
}

trace::IoTrace
eventRecord(const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::InputSequence &stim)
{
    trace::IoTrace io;
    EventSimulator sim(mod, library, clock);
    runLanes(sim, mod, clock, {&stim}, &io);
    return io;
}

std::vector<ReplayResult>
replayTraceBatch(const Module &mod,
                 const std::vector<const Module *> &library,
                 const std::string &clock,
                 const std::vector<const trace::IoTrace *> &traces)
{
    return runItems<ReplayResult>(mod, library, clock, traces,
                                  traces.size() > 1);
}

std::vector<trace::IoTrace>
recordTraceBatch(const Module &mod,
                 const std::vector<const Module *> &library,
                 const std::string &clock,
                 const std::vector<const trace::InputSequence *> &stims)
{
    return runItems<trace::IoTrace>(mod, library, clock, stims,
                                    stims.size() > 1);
}

ReplayResult
replayTrace(SimBackend backend, const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::IoTrace &io)
{
    return runItems<ReplayResult, trace::IoTrace>(
        mod, library, clock, {&io}, backend == SimBackend::Vec)[0];
}

trace::IoTrace
recordTrace(SimBackend backend, const Module &mod,
            const std::vector<const Module *> &library,
            const std::string &clock, const trace::InputSequence &stim)
{
    return runItems<trace::IoTrace, trace::InputSequence>(
        mod, library, clock, {&stim}, backend == SimBackend::Vec)[0];
}

} // namespace rtlrepair::sim
