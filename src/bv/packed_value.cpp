#include "bv/packed_value.hpp"

#include <algorithm>
#include <iterator>

#include "util/logging.hpp"

namespace rtlrepair::bv {

// ---------------------------------------------------------------------
// PackedOps kernels: value plane then unknown plane, one word per bit
// position each; bit L of a word belongs to lane L.
// ---------------------------------------------------------------------

size_t
PackedOps::spanWords(uint32_t width)
{
    return 2 * size_t(width);
}

uint64_t
PackedOps::anyX(const uint64_t *a, uint32_t w)
{
    uint64_t m = 0;
    for (uint32_t p = 0; p < w; ++p)
        m |= a[w + p];
    return m;
}

uint64_t
PackedOps::anyOne(const uint64_t *a, uint32_t w)
{
    uint64_t m = 0;
    for (uint32_t p = 0; p < w; ++p)
        m |= a[p];
    return m;
}

void
PackedOps::bitNot(uint64_t *r, const uint64_t *a, uint32_t w)
{
    for (uint32_t p = 0; p < w; ++p) {
        r[p] = ~a[p] & ~a[w + p];
        r[w + p] = a[w + p];
    }
}

void
PackedOps::neg(uint64_t *r, const uint64_t *a, uint32_t w)
{
    uint64_t xl = anyX(a, w);
    uint64_t carry = ~0ull;  // ~a + 1
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t v = ~a[p];
        r[p] = (v ^ carry) & ~xl;
        r[w + p] = xl;
        carry = v & carry;
    }
}

void
PackedOps::redAnd(uint64_t *r, const uint64_t *a, uint32_t wa)
{
    uint64_t known0 = 0;
    for (uint32_t p = 0; p < wa; ++p)
        known0 |= ~a[p] & ~a[wa + p];
    uint64_t xl = anyX(a, wa);
    r[0] = ~known0 & ~xl;
    r[1] = xl & ~known0;
}

void
PackedOps::redOr(uint64_t *r, const uint64_t *a, uint32_t wa)
{
    uint64_t one = anyOne(a, wa);
    r[0] = one;
    r[1] = anyX(a, wa) & ~one;
}

void
PackedOps::redXor(uint64_t *r, const uint64_t *a, uint32_t wa)
{
    uint64_t xl = anyX(a, wa);
    uint64_t parity = 0;
    for (uint32_t p = 0; p < wa; ++p)
        parity ^= a[p];
    r[0] = parity & ~xl;
    r[1] = xl;
}

void
PackedOps::bitAnd(uint64_t *r, const uint64_t *a, const uint64_t *b,
                  uint32_t w)
{
    for (uint32_t p = 0; p < w; ++p) {
        // Known zero on either side dominates any X on the other.
        uint64_t one = a[p] & b[p];
        uint64_t zero = (~a[p] & ~a[w + p]) | (~b[p] & ~b[w + p]);
        r[p] = one;
        r[w + p] = ~(one | zero);
    }
}

void
PackedOps::bitOr(uint64_t *r, const uint64_t *a, const uint64_t *b,
                 uint32_t w)
{
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t one = a[p] | b[p];
        uint64_t zero = (~a[p] & ~a[w + p]) & (~b[p] & ~b[w + p]);
        r[p] = one;
        r[w + p] = ~(one | zero);
    }
}

void
PackedOps::bitXor(uint64_t *r, const uint64_t *a, const uint64_t *b,
                  uint32_t w)
{
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t x = a[w + p] | b[w + p];
        r[w + p] = x;
        r[p] = (a[p] ^ b[p]) & ~x;
    }
}

void
PackedOps::add(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    uint64_t xl = anyX(a, w) | anyX(b, w);
    uint64_t carry = 0;
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t x = a[p], y = b[p];
        r[p] = (x ^ y ^ carry) & ~xl;
        r[w + p] = xl;
        carry = (x & y) | (carry & (x ^ y));
    }
}

void
PackedOps::sub(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    uint64_t xl = anyX(a, w) | anyX(b, w);
    uint64_t carry = ~0ull;  // a + ~b + 1
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t x = a[p], y = ~b[p];
        r[p] = (x ^ y ^ carry) & ~xl;
        r[w + p] = xl;
        carry = (x & y) | (carry & (x ^ y));
    }
}

void
PackedOps::getLane(uint64_t *out, const uint64_t *a, uint32_t w,
                   uint32_t l)
{
    size_t n = nwords(w);
    std::fill(out, out + 2 * n, 0ull);
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t pm = 1ull << (p & 63u);
        if ((a[w + p] >> l) & 1u)
            out[n + (p >> 6)] |= pm;
        else if ((a[p] >> l) & 1u)
            out[p >> 6] |= pm;
    }
}

void
PackedOps::setLane(uint64_t *r, uint32_t w, uint32_t l, const uint64_t *v)
{
    size_t n = nwords(w);
    uint64_t m = 1ull << l;
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t pm = 1ull << (p & 63u);
        r[p] = (v[p >> 6] & pm) ? (r[p] | m) : (r[p] & ~m);
        r[w + p] = (v[n + (p >> 6)] & pm) ? (r[w + p] | m)
                                          : (r[w + p] & ~m);
    }
}

namespace {

using ScalarBinary = void (*)(uint64_t *, const uint64_t *,
                              const uint64_t *, uint32_t);

/**
 * Mul/udiv/urem: the ScalarOps kernel run lane by lane on stack
 * buffers (heap only past 256-bit operands).  Lanes outside
 * @p ok_lanes are all-X.
 */
void
perLane(uint64_t *r, const uint64_t *a, const uint64_t *b, uint32_t w,
        uint64_t ok_lanes, ScalarBinary op)
{
    size_t span = 2 * nwords(w);
    uint64_t small[24] = {};
    std::vector<uint64_t> big;
    uint64_t *buf = small;
    if (3 * span > std::size(small)) {
        big.resize(3 * span);
        buf = big.data();
    }
    uint64_t *la = buf, *lb = buf + span, *lr = buf + 2 * span;
    std::fill(r, r + w, 0ull);
    std::fill(r + w, r + 2 * size_t(w), ~0ull);
    for (uint32_t l = 0; l < PackedValue::kLanes; ++l) {
        if (!((ok_lanes >> l) & 1u))
            continue;
        PackedOps::getLane(la, a, w, l);
        PackedOps::getLane(lb, b, w, l);
        op(lr, la, lb, w);
        PackedOps::setLane(r, w, l, lr);
    }
}

/** Lanes where the packed @p b is fully known and zero. */
uint64_t
laneZero(const uint64_t *b, uint32_t w)
{
    return ~PackedOps::anyOne(b, w) & ~PackedOps::anyX(b, w);
}

} // namespace

void
PackedOps::mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    perLane(r, a, b, w, ~(anyX(a, w) | anyX(b, w)), &ScalarOps::mul);
}

void
PackedOps::udiv(uint64_t *r, const uint64_t *a, const uint64_t *b,
                uint32_t w)
{
    perLane(r, a, b, w, ~(anyX(a, w) | anyX(b, w)) & ~laneZero(b, w),
            &ScalarOps::udiv);
}

void
PackedOps::urem(uint64_t *r, const uint64_t *a, const uint64_t *b,
                uint32_t w)
{
    perLane(r, a, b, w, ~(anyX(a, w) | anyX(b, w)) & ~laneZero(b, w),
            &ScalarOps::urem);
}

namespace {

/**
 * Per-lane saturation mask for a shift: lanes whose known amount bits
 * select a shift >= width.  Amount bit positions >= 64 saturate,
 * mirroring the scalar kernel, which saturates when any amount word
 * past the first is non-zero.
 */
uint64_t
shiftSaturation(const uint64_t *s, uint32_t ws, uint32_t w)
{
    uint64_t sat = 0;
    for (uint32_t p = 0; p < ws; ++p) {
        bool overflows = p >= 64 || (1ull << std::min<uint32_t>(p, 63)) >=
                                        static_cast<uint64_t>(w);
        if (overflows)
            sat |= s[p];
    }
    return sat;
}

} // namespace

void
PackedOps::shl(uint64_t *r, const uint64_t *a, uint32_t w,
               const uint64_t *s, uint32_t ws)
{
    uint64_t xl = anyX(a, w) | anyX(s, ws);
    uint64_t sat = shiftSaturation(s, ws, w);
    std::copy(a, a + w, r);
    for (uint32_t p = 0; p < ws && p < 64; ++p) {
        uint64_t step = 1ull << p;
        if (step >= w)
            break;
        uint64_t m = s[p];
        if (!m)
            continue;
        for (uint32_t pos = w; pos-- > 0;) {
            uint64_t in = pos >= step ? r[pos - step] : 0;
            r[pos] = (r[pos] & ~m) | (in & m);
        }
    }
    uint64_t keep = ~xl & ~sat;
    for (uint32_t p = 0; p < w; ++p) {
        r[p] &= keep;
        r[w + p] = xl;
    }
}

void
PackedOps::lshr(uint64_t *r, const uint64_t *a, uint32_t w,
                const uint64_t *s, uint32_t ws)
{
    uint64_t xl = anyX(a, w) | anyX(s, ws);
    uint64_t sat = shiftSaturation(s, ws, w);
    std::copy(a, a + w, r);
    for (uint32_t p = 0; p < ws && p < 64; ++p) {
        uint64_t step = 1ull << p;
        if (step >= w)
            break;
        uint64_t m = s[p];
        if (!m)
            continue;
        for (uint32_t pos = 0; pos < w; ++pos) {
            uint64_t in = pos + step < w ? r[pos + step] : 0;
            r[pos] = (r[pos] & ~m) | (in & m);
        }
    }
    uint64_t keep = ~xl & ~sat;
    for (uint32_t p = 0; p < w; ++p) {
        r[p] &= keep;
        r[w + p] = xl;
    }
}

void
PackedOps::ashr(uint64_t *r, const uint64_t *a, uint32_t w,
                const uint64_t *s, uint32_t ws)
{
    uint64_t xl = anyX(a, w) | anyX(s, ws);
    uint64_t sat = shiftSaturation(s, ws, w);
    uint64_t sign = a[w - 1];
    std::copy(a, a + w, r);
    for (uint32_t p = 0; p < ws && p < 64; ++p) {
        uint64_t step = 1ull << p;
        if (step >= w)
            break;
        uint64_t m = s[p];
        if (!m)
            continue;
        for (uint32_t pos = 0; pos < w; ++pos) {
            uint64_t in = pos + step < w ? r[pos + step] : sign;
            r[pos] = (r[pos] & ~m) | (in & m);
        }
    }
    for (uint32_t p = 0; p < w; ++p) {
        r[p] = ((r[p] & ~sat) | (sign & sat)) & ~xl;
        r[w + p] = xl;
    }
}

namespace {

/** Lanes where the value planes differ (operands X-free there). */
uint64_t
valueDiff(const uint64_t *a, const uint64_t *b, uint32_t w)
{
    uint64_t ne = 0;
    for (uint32_t p = 0; p < w; ++p)
        ne |= a[p] ^ b[p];
    return ne;
}

/** Unsigned a < b per lane, on the value planes. */
uint64_t
lessThan(const uint64_t *a, const uint64_t *b, uint32_t w)
{
    uint64_t lt = 0;
    for (uint32_t p = 0; p < w; ++p)
        lt = (~a[p] & b[p]) | (~(a[p] ^ b[p]) & lt);
    return lt;
}

/** Signed a < b per lane: different signs, the negative is smaller. */
uint64_t
lessThanSigned(const uint64_t *a, const uint64_t *b, uint32_t w)
{
    uint64_t sa = a[w - 1], sb = b[w - 1];
    return (sa & ~sb) | (~(sa ^ sb) & lessThan(a, b, w));
}

/** A 1-bit result: @p truth in the known lanes, X in @p xl. */
void
setCompare(uint64_t *r, uint64_t truth, uint64_t xl)
{
    r[0] = truth & ~xl;
    r[1] = xl;
}

} // namespace

void
PackedOps::eq(uint64_t *r, const uint64_t *a, const uint64_t *b,
              uint32_t w)
{
    setCompare(r, ~valueDiff(a, b, w), anyX(a, w) | anyX(b, w));
}

void
PackedOps::ult(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    setCompare(r, lessThan(a, b, w), anyX(a, w) | anyX(b, w));
}

void
PackedOps::ule(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    setCompare(r, lessThan(a, b, w) | ~valueDiff(a, b, w),
               anyX(a, w) | anyX(b, w));
}

void
PackedOps::slt(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    setCompare(r, lessThanSigned(a, b, w), anyX(a, w) | anyX(b, w));
}

void
PackedOps::sle(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    setCompare(r, lessThanSigned(a, b, w) | ~valueDiff(a, b, w),
               anyX(a, w) | anyX(b, w));
}

void
PackedOps::caseEq(uint64_t *r, const uint64_t *a, const uint64_t *b,
                  uint32_t w)
{
    uint64_t diff = 0;
    for (uint32_t p = 0; p < 2 * w; ++p)
        diff |= a[p] ^ b[p];
    r[0] = ~diff;
    r[1] = 0;
}

void
PackedOps::concat(uint64_t *r, const uint64_t *hi, uint32_t whi,
                  const uint64_t *lo, uint32_t wlo)
{
    uint32_t w = whi + wlo;
    for (uint32_t plane = 0; plane < 2; ++plane) {
        std::copy(lo + plane * wlo, lo + (plane + 1) * wlo, r + plane * w);
        std::copy(hi + plane * whi, hi + (plane + 1) * whi,
                  r + plane * w + wlo);
    }
}

void
PackedOps::slice(uint64_t *r, const uint64_t *a, uint32_t wa,
                 uint32_t msb, uint32_t lsb)
{
    uint32_t w = msb - lsb + 1;
    std::copy(a + lsb, a + lsb + w, r);
    std::copy(a + wa + lsb, a + wa + lsb + w, r + w);
}

void
PackedOps::ite(uint64_t *r, const uint64_t *c, const uint64_t *t,
               const uint64_t *e, uint32_t w)
{
    uint64_t c1 = c[0];
    uint64_t cx = c[1];
    uint64_t c0 = ~c1 & ~cx;
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t agree = ~t[w + p] & ~e[w + p] & ~(t[p] ^ e[p]);
        r[p] = (c1 & t[p]) | (c0 & e[p]) | (cx & t[p] & agree);
        r[w + p] = (c1 & t[w + p]) | (c0 & e[w + p]) | (cx & ~agree);
    }
}

void
PackedOps::zext(uint64_t *r, const uint64_t *a, uint32_t wa, uint32_t w)
{
    for (uint32_t plane = 0; plane < 2; ++plane) {
        std::copy(a + plane * wa, a + (plane + 1) * wa, r + plane * w);
        std::fill(r + plane * w + wa, r + (plane + 1) * w, 0ull);
    }
}

void
PackedOps::sext(uint64_t *r, const uint64_t *a, uint32_t wa, uint32_t w)
{
    for (uint32_t plane = 0; plane < 2; ++plane) {
        std::copy(a + plane * wa, a + (plane + 1) * wa, r + plane * w);
        std::fill(r + plane * w + wa, r + (plane + 1) * w,
                  a[plane * wa + wa - 1]);
    }
}

uint64_t
PackedOps::laneMatches(const uint64_t *got, uint32_t wg,
                       const uint64_t *exp, uint32_t we)
{
    // Mismatched widths compare zero-extended, as Value::matches.
    uint64_t bad = 0;
    for (uint32_t p = 0; p < std::max(wg, we); ++p) {
        uint64_t gd = p < wg ? got[p] : 0, gx = p < wg ? got[wg + p] : 0;
        uint64_t ed = p < we ? exp[p] : 0, ex = p < we ? exp[we + p] : 0;
        bad |= ~ex & (gx | (gd ^ ed));
    }
    return ~bad;
}

uint64_t
PackedOps::laneMatchesScalar(const uint64_t *got, uint32_t wg,
                             const uint64_t *exp, uint32_t we)
{
    size_t ne = nwords(we);
    uint64_t bad = 0;
    for (uint32_t p = 0; p < std::max(wg, we); ++p) {
        uint64_t pm = 1ull << (p & 63u);
        bool ex = p < we && (exp[ne + (p >> 6)] & pm);
        if (ex)
            continue;  // X in the trace: don't care
        uint64_t ed = p < we && (exp[p >> 6] & pm) ? ~0ull : 0;
        uint64_t gd = p < wg ? got[p] : 0, gx = p < wg ? got[wg + p] : 0;
        bad |= gx | (gd ^ ed);
    }
    return ~bad;
}

void
PackedOps::broadcast(uint64_t *r, uint32_t w, const uint64_t *a,
                     uint32_t wa)
{
    size_t na = nwords(wa);
    for (uint32_t p = 0; p < w; ++p) {
        uint64_t pm = 1ull << (p & 63u);
        bool x = p < wa && (a[na + (p >> 6)] & pm);
        bool one = p < wa && (a[p >> 6] & pm);
        r[p] = one ? ~0ull : 0;
        r[w + p] = x ? ~0ull : 0;
    }
}

// ---------------------------------------------------------------------
// PackedValue: allocating wrappers over the PackedOps kernels.
// ---------------------------------------------------------------------

PackedValue::PackedValue(uint32_t width)
    : _width(width)
{
    check(width > 0, "zero-width PackedValue");
    if (width > (1u << 22))
        fatal("bit-vector width too large");
    _w.assign(2 * size_t(width), 0);
}

PackedValue
PackedValue::zeros(uint32_t width)
{
    return PackedValue(width);
}

PackedValue
PackedValue::allX(uint32_t width)
{
    PackedValue r(width);
    std::fill(r.unk(), r.unk() + width, ~0ull);
    return r;
}

PackedValue
PackedValue::broadcast(const Value &v)
{
    PackedValue r(v.width());
    PackedOps::broadcast(r.val(), r._width, v.span(), v.width());
    return r;
}

PackedValue
PackedValue::fromSpan(uint32_t width, const uint64_t *span)
{
    PackedValue r(width);
    std::copy(span, span + r._w.size(), r._w.begin());
    return r;
}

PackedValue
PackedValue::pack(const std::vector<Value> &vals, uint32_t width)
{
    std::vector<const Value *> ptrs(vals.size());
    for (size_t l = 0; l < vals.size(); ++l)
        ptrs[l] = &vals[l];
    return pack(ptrs.data(), ptrs.size(), width);
}

PackedValue
PackedValue::pack(const Value *const *vals, size_t n, uint32_t width)
{
    check(n <= kLanes, "pack: too many lanes");
    PackedValue r = allX(width);
    uint64_t *rv = r.val(), *ru = r.unk();
    for (size_t l = 0; l < n; ++l) {
        if (!vals[l])
            continue;
        const Value &v = *vals[l];
        uint64_t m = 1ull << l;
        // Reading the source planes in place implements the zext /
        // truncate adjustment without materializing a copy: bits
        // past the source width are known zero.  The inner loop is
        // register-only — one plane-word load per 64 source bits.
        uint32_t low = std::min(v.width(), width);
        for (uint32_t p = 0; p < low;) {
            uint64_t bits = v.bitsWord(p >> 6);
            uint64_t xm = v.xmaskWord(p >> 6);
            uint32_t hi = std::min(low, (p & ~63u) + 64u);
            for (; p < hi; ++p) {
                uint64_t pm = 1ull << (p & 63u);
                rv[p] = (bits & pm) ? (rv[p] | m) : (rv[p] & ~m);
                ru[p] = (xm & pm) ? (ru[p] | m) : (ru[p] & ~m);
            }
        }
        for (uint32_t p = low; p < width; ++p) {
            rv[p] &= ~m;
            ru[p] &= ~m;
        }
    }
    return r;
}

Value
PackedValue::lane(uint32_t l) const
{
    check(l < kLanes, "lane index out of range");
    std::vector<uint64_t> span(2 * nwords(_width));
    PackedOps::getLane(span.data(), _w.data(), _width, l);
    return Value::fromSpan(_width, span.data());
}

void
PackedValue::setLane(uint32_t l, const Value &v)
{
    check(l < kLanes, "lane index out of range");
    check(v.width() == _width, "setLane: width mismatch");
    PackedOps::setLane(_w.data(), _width, l, v.span());
}

void
PackedValue::setBitLanes(uint32_t pos, uint64_t val, uint64_t unk,
                         uint64_t mask)
{
    check(pos < _width, "setBitLanes: position out of range");
    uint64_t &v = _w[pos], &u = _w[_width + pos];
    v = (v & ~mask) | (val & mask);
    u = (u & ~mask) | (unk & mask);
    v &= ~u;
}

uint64_t
PackedValue::anyX() const
{
    return PackedOps::anyX(_w.data(), _width);
}

uint64_t
PackedValue::anyOne() const
{
    return PackedOps::anyOne(_w.data(), _width);
}

uint64_t
PackedValue::laneEq(const PackedValue &rhs) const
{
    if (_width != rhs._width)
        return 0;
    uint64_t diff = 0;
    for (size_t i = 0; i < _w.size(); ++i)
        diff |= _w[i] ^ rhs._w[i];
    return ~diff;
}

uint64_t
PackedValue::laneMatches(const PackedValue &expected) const
{
    return PackedOps::laneMatches(_w.data(), _width, expected._w.data(),
                                  expected._width);
}

uint64_t
PackedValue::laneEqUint(uint64_t target) const
{
    uint32_t n = std::min<uint32_t>(_width, 64);
    if (n < 64 && (target >> n) != 0)
        return 0;
    uint64_t m = ~anyX();
    for (uint32_t p = 0; p < n; ++p)
        m &= ((target >> p) & 1) ? _w[p] : ~_w[p];
    return m;
}

PackedValue
PackedValue::blend(const PackedValue &a, const PackedValue &b,
                   uint64_t mask)
{
    check(a._width == b._width, "blend: width mismatch");
    PackedValue r(a._width);
    for (size_t i = 0; i < r._w.size(); ++i)
        r._w[i] = (a._w[i] & mask) | (b._w[i] & ~mask);
    return r;
}

PackedValue
PackedValue::zext(uint32_t new_width) const
{
    check(new_width >= _width, "zext must not shrink");
    PackedValue r(new_width);
    PackedOps::zext(r.val(), span(), _width, new_width);
    return r;
}

PackedValue
PackedValue::sext(uint32_t new_width) const
{
    check(new_width >= _width, "sext must not shrink");
    PackedValue r(new_width);
    PackedOps::sext(r.val(), span(), _width, new_width);
    return r;
}

PackedValue
PackedValue::slice(uint32_t hi, uint32_t lo) const
{
    check(hi < _width && lo <= hi, "slice out of range");
    PackedValue r(hi - lo + 1);
    PackedOps::slice(r.val(), span(), _width, hi, lo);
    return r;
}

PackedValue
PackedValue::concat(const PackedValue &low) const
{
    PackedValue r(_width + low._width);
    PackedOps::concat(r.val(), span(), _width, low.span(), low._width);
    return r;
}

PackedValue
PackedValue::replicate(uint32_t n) const
{
    check(n > 0, "replicate zero times");
    // The product is checked before it can wrap into a small width
    // the copies below would overrun.
    uint64_t width = uint64_t(_width) * n;
    if (width > (1u << 22))
        fatal("bit-vector width too large");
    PackedValue r(static_cast<uint32_t>(width));
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t plane = 0; plane < 2; ++plane) {
            std::copy(_w.begin() + plane * _width,
                      _w.begin() + (plane + 1) * _width,
                      r._w.begin() + plane * r._width + size_t(i) * _width);
        }
    }
    return r;
}

#define RTLREPAIR_PACKED_BINARY(signature, kernel, out_width, what)     \
    PackedValue PackedValue::signature(const PackedValue &rhs) const   \
    {                                                                  \
        check(_width == rhs._width, what ": width mismatch");          \
        PackedValue r(out_width);                                      \
        PackedOps::kernel(r.val(), span(), rhs.span(), _width);        \
        return r;                                                      \
    }

RTLREPAIR_PACKED_BINARY(operator&, bitAnd, _width, "and")
RTLREPAIR_PACKED_BINARY(operator|, bitOr, _width, "or")
RTLREPAIR_PACKED_BINARY(operator^, bitXor, _width, "xor")
RTLREPAIR_PACKED_BINARY(operator+, add, _width, "add")
RTLREPAIR_PACKED_BINARY(operator-, sub, _width, "sub")
RTLREPAIR_PACKED_BINARY(operator*, mul, _width, "mul")
RTLREPAIR_PACKED_BINARY(udiv, udiv, _width, "udiv")
RTLREPAIR_PACKED_BINARY(urem, urem, _width, "urem")
RTLREPAIR_PACKED_BINARY(eq, eq, 1, "eq")
RTLREPAIR_PACKED_BINARY(ult, ult, 1, "ult")
RTLREPAIR_PACKED_BINARY(ule, ule, 1, "ule")
RTLREPAIR_PACKED_BINARY(slt, slt, 1, "slt")
RTLREPAIR_PACKED_BINARY(sle, sle, 1, "sle")
RTLREPAIR_PACKED_BINARY(caseEq, caseEq, 1, "caseEq")

#undef RTLREPAIR_PACKED_BINARY

PackedValue
PackedValue::operator~() const
{
    PackedValue r(_width);
    PackedOps::bitNot(r.val(), span(), _width);
    return r;
}

PackedValue
PackedValue::negate() const
{
    PackedValue r(_width);
    PackedOps::neg(r.val(), span(), _width);
    return r;
}

PackedValue
PackedValue::ne(const PackedValue &rhs) const
{
    return ~eq(rhs);
}

PackedValue
PackedValue::shl(const PackedValue &amount) const
{
    PackedValue r(_width);
    PackedOps::shl(r.val(), span(), _width, amount.span(), amount._width);
    return r;
}

PackedValue
PackedValue::lshr(const PackedValue &amount) const
{
    PackedValue r(_width);
    PackedOps::lshr(r.val(), span(), _width, amount.span(),
                    amount._width);
    return r;
}

PackedValue
PackedValue::ashr(const PackedValue &amount) const
{
    PackedValue r(_width);
    PackedOps::ashr(r.val(), span(), _width, amount.span(),
                    amount._width);
    return r;
}

PackedValue
PackedValue::redAnd() const
{
    PackedValue r(1);
    PackedOps::redAnd(r.val(), span(), _width);
    return r;
}

PackedValue
PackedValue::redOr() const
{
    PackedValue r(1);
    PackedOps::redOr(r.val(), span(), _width);
    return r;
}

PackedValue
PackedValue::redXor() const
{
    PackedValue r(1);
    PackedOps::redXor(r.val(), span(), _width);
    return r;
}

PackedValue
PackedValue::ite(const PackedValue &cond, const PackedValue &then_v,
                 const PackedValue &else_v)
{
    check(cond._width == 1, "ite: condition must be 1 bit");
    check(then_v._width == else_v._width, "ite: arm width mismatch");
    PackedValue r(then_v._width);
    PackedOps::ite(r.val(), cond.span(), then_v.span(), else_v.span(),
                   then_v._width);
    return r;
}

} // namespace rtlrepair::bv
