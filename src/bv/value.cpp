#include "bv/value.hpp"

#include <algorithm>
#include <cctype>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::bv {

// ---------------------------------------------------------------------
// ScalarOps kernels: data plane then X plane, nwords(w) words each.
// ---------------------------------------------------------------------

namespace {

bool
anyXWords(const uint64_t *a, uint32_t w)
{
    size_t n = nwords(w);
    for (size_t i = 0; i < n; ++i) {
        if (a[n + i] != 0)
            return true;
    }
    return false;
}

void
fillZero(uint64_t *r, uint32_t w)
{
    std::fill(r, r + 2 * nwords(w), 0ull);
}

void
fillAllX(uint64_t *r, uint32_t w)
{
    size_t n = nwords(w);
    std::fill(r, r + n, 0ull);
    std::fill(r + n, r + 2 * n, ~0ull);
    r[2 * n - 1] &= topMask(w);
}

/** A known 1-bit result. */
void
setBool(uint64_t *r, bool v)
{
    r[0] = v ? 1u : 0u;
    r[1] = 0;
}

/** A 1-bit X result. */
void
setX1(uint64_t *r)
{
    r[0] = 0;
    r[1] = 1;
}

/** Set bits [from, to) of one plane. */
void
fillBits(uint64_t *plane, uint32_t from, uint32_t to)
{
    for (uint32_t i = from; i < to;) {
        uint32_t lo = i % 64u;
        uint32_t take = std::min(64u - lo, to - i);
        uint64_t m = take == 64 ? ~0ull : ((1ull << take) - 1ull) << lo;
        plane[i / 64u] |= m;
        i += take;
    }
}

/** Unsigned comparison of known planes: -1, 0, +1. */
int
compareKnown(const uint64_t *a, const uint64_t *b, size_t n)
{
    for (size_t i = n; i-- > 0;) {
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

/** Shift amount of the known @p ws-bit @p s, saturated to @p w when
 *  any word past the first is non-zero. */
uint64_t
shiftAmount(const uint64_t *s, uint32_t ws, uint32_t w)
{
    uint64_t by = s[0];
    for (size_t i = 1; i < nwords(ws); ++i) {
        if (s[i] != 0)
            by = w;
    }
    return by;
}

/** Bits [lsb, lsb + 64 * nout) of the @p nsrc-word plane @p src. */
void
extractBits(uint64_t *dst, size_t nout, const uint64_t *src,
            size_t nsrc, uint32_t lsb)
{
    size_t ws = lsb / 64u;
    uint32_t bs = lsb % 64u;
    for (size_t j = 0; j < nout; ++j) {
        size_t wi = ws + j;
        uint64_t v = wi < nsrc ? src[wi] >> bs : 0;
        if (bs != 0 && wi + 1 < nsrc)
            v |= src[wi + 1] << (64u - bs);
        dst[j] = v;
    }
}

/** OR the @p nsrc-word plane @p src into @p dst at bit @p offset. */
void
depositBits(uint64_t *dst, size_t ndst, const uint64_t *src,
            size_t nsrc, uint32_t offset)
{
    size_t ws = offset / 64u;
    uint32_t bs = offset % 64u;
    for (size_t j = 0; j < nsrc; ++j) {
        dst[ws + j] |= src[j] << bs;
        if (bs != 0 && ws + j + 1 < ndst)
            dst[ws + j + 1] |= src[j] >> (64u - bs);
    }
}

/** Restoring long division of known planes, MSB first; writes the
 *  quotient to @p q when non-null and leaves the remainder in
 *  @p rem. */
void
longDivide(uint64_t *q, uint64_t *rem, const uint64_t *a,
           const uint64_t *b, uint32_t w)
{
    size_t n = nwords(w);
    std::fill(rem, rem + n, 0ull);
    if (q)
        std::fill(q, q + n, 0ull);
    for (uint32_t i = w; i-- > 0;) {
        for (size_t k = n; k-- > 1;)
            rem[k] = (rem[k] << 1) | (rem[k - 1] >> 63);
        rem[0] = (rem[0] << 1) | ((a[i / 64u] >> (i % 64u)) & 1u);
        rem[n - 1] &= topMask(w);
        if (compareKnown(rem, b, n) >= 0) {
            uint64_t borrow = 0;
            for (size_t k = 0; k < n; ++k) {
                uint64_t d = rem[k] - b[k];
                uint64_t b1 = rem[k] < b[k] ? 1u : 0u;
                uint64_t d2 = d - borrow;
                uint64_t b2 = d < borrow ? 1u : 0u;
                rem[k] = d2;
                borrow = b1 | b2;
            }
            if (q)
                q[i / 64u] |= 1ull << (i % 64u);
        }
    }
}

bool
isZeroKnown(const uint64_t *a, uint32_t w)
{
    for (size_t i = 0; i < nwords(w); ++i) {
        if (a[i] != 0)
            return false;
    }
    return true;
}

} // namespace

size_t
ScalarOps::spanWords(uint32_t width)
{
    return 2 * nwords(width);
}

void
ScalarOps::bitNot(uint64_t *r, const uint64_t *a, uint32_t w)
{
    size_t n = nwords(w);
    for (size_t i = 0; i < n; ++i) {
        r[i] = ~a[i] & ~a[n + i];
        r[n + i] = a[n + i];
    }
    r[n - 1] &= topMask(w);
}

void
ScalarOps::neg(uint64_t *r, const uint64_t *a, uint32_t w)
{
    if (anyXWords(a, w))
        return fillAllX(r, w);
    size_t n = nwords(w);
    uint64_t carry = 1;
    for (size_t i = 0; i < n; ++i) {
        uint64_t v = ~a[i];
        r[i] = v + carry;
        carry = r[i] < v ? 1u : 0u;
        r[n + i] = 0;
    }
    r[n - 1] &= topMask(w);
}

void
ScalarOps::redAnd(uint64_t *r, const uint64_t *a, uint32_t wa)
{
    size_t n = nwords(wa);
    uint64_t known0 = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t valid = i + 1 == n ? topMask(wa) : ~0ull;
        known0 |= ~a[i] & ~a[n + i] & valid;
    }
    if (known0)
        return setBool(r, false);
    if (anyXWords(a, wa))
        return setX1(r);
    setBool(r, true);
}

void
ScalarOps::redOr(uint64_t *r, const uint64_t *a, uint32_t wa)
{
    size_t n = nwords(wa);
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != 0)
            return setBool(r, true);
    }
    if (anyXWords(a, wa))
        return setX1(r);
    setBool(r, false);
}

void
ScalarOps::redXor(uint64_t *r, const uint64_t *a, uint32_t wa)
{
    if (anyXWords(a, wa))
        return setX1(r);
    uint64_t parity = 0;
    for (size_t i = 0; i < nwords(wa); ++i)
        parity ^= a[i];
    setBool(r, __builtin_parityll(parity) != 0);
}

void
ScalarOps::bitAnd(uint64_t *r, const uint64_t *a, const uint64_t *b,
                  uint32_t w)
{
    size_t n = nwords(w);
    for (size_t i = 0; i < n; ++i) {
        // Known one bits: both known one.  Unknown unless either is a
        // known zero.
        uint64_t one = a[i] & b[i];
        uint64_t zero = (~a[n + i] & ~a[i]) | (~b[n + i] & ~b[i]);
        r[i] = one;
        r[n + i] = ~(one | zero);
    }
    r[2 * n - 1] &= topMask(w);
}

void
ScalarOps::bitOr(uint64_t *r, const uint64_t *a, const uint64_t *b,
                 uint32_t w)
{
    size_t n = nwords(w);
    for (size_t i = 0; i < n; ++i) {
        uint64_t one = a[i] | b[i];
        uint64_t zero = (~a[n + i] & ~a[i]) & (~b[n + i] & ~b[i]);
        r[i] = one;
        r[n + i] = ~(one | zero);
    }
    r[2 * n - 1] &= topMask(w);
}

void
ScalarOps::bitXor(uint64_t *r, const uint64_t *a, const uint64_t *b,
                  uint32_t w)
{
    size_t n = nwords(w);
    for (size_t i = 0; i < n; ++i) {
        uint64_t x = a[n + i] | b[n + i];
        r[n + i] = x;
        r[i] = (a[i] ^ b[i]) & ~x;
    }
}

void
ScalarOps::add(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return fillAllX(r, w);
    size_t n = nwords(w);
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t sum = a[i] + carry;
        uint64_t carry1 = sum < a[i] ? 1u : 0u;
        uint64_t total = sum + b[i];
        uint64_t carry2 = total < sum ? 1u : 0u;
        r[i] = total;
        r[n + i] = 0;
        carry = carry1 | carry2;
    }
    r[n - 1] &= topMask(w);
}

void
ScalarOps::sub(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return fillAllX(r, w);
    size_t n = nwords(w);
    uint64_t carry = 1;  // a + ~b + 1
    for (size_t i = 0; i < n; ++i) {
        uint64_t nb = ~b[i];
        uint64_t sum = a[i] + nb;
        uint64_t carry1 = sum < a[i] ? 1u : 0u;
        uint64_t total = sum + carry;
        uint64_t carry2 = total < sum ? 1u : 0u;
        r[i] = total;
        r[n + i] = 0;
        carry = carry1 | carry2;
    }
    r[n - 1] &= topMask(w);
}

void
ScalarOps::mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return fillAllX(r, w);
    size_t n = nwords(w);
    fillZero(r, w);
    for (size_t i = 0; i < n; ++i) {
        uint64_t carry = 0;
        for (size_t j = 0; i + j < n; ++j) {
            unsigned __int128 cur =
                static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j] +
                carry;
            r[i + j] = static_cast<uint64_t>(cur);
            carry = static_cast<uint64_t>(cur >> 64);
        }
    }
    r[n - 1] &= topMask(w);
}

void
ScalarOps::udiv(uint64_t *r, const uint64_t *a, const uint64_t *b,
                uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w) || isZeroKnown(b, w))
        return fillAllX(r, w);
    size_t n = nwords(w);
    if (n == 1) {
        r[0] = a[0] / b[0];
        r[1] = 0;
        return;
    }
    // The X plane is the remainder's scratch until the end.
    longDivide(r, r + n, a, b, w);
    std::fill(r + n, r + 2 * n, 0ull);
}

void
ScalarOps::urem(uint64_t *r, const uint64_t *a, const uint64_t *b,
                uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w) || isZeroKnown(b, w))
        return fillAllX(r, w);
    size_t n = nwords(w);
    if (n == 1) {
        r[0] = a[0] % b[0];
        r[1] = 0;
        return;
    }
    longDivide(nullptr, r, a, b, w);
    std::fill(r + n, r + 2 * n, 0ull);
}

void
ScalarOps::shl(uint64_t *r, const uint64_t *a, uint32_t w,
               const uint64_t *s, uint32_t ws)
{
    if (anyXWords(a, w) || anyXWords(s, ws))
        return fillAllX(r, w);
    uint64_t by = shiftAmount(s, ws, w);
    fillZero(r, w);
    if (by >= w)
        return;
    size_t n = nwords(w);
    size_t wsh = by / 64u;
    uint32_t bsh = by % 64u;
    for (size_t j = wsh; j < n; ++j) {
        r[j] = a[j - wsh] << bsh;
        if (bsh != 0 && j > wsh)
            r[j] |= a[j - wsh - 1] >> (64u - bsh);
    }
    r[n - 1] &= topMask(w);
}

void
ScalarOps::lshr(uint64_t *r, const uint64_t *a, uint32_t w,
                const uint64_t *s, uint32_t ws)
{
    if (anyXWords(a, w) || anyXWords(s, ws))
        return fillAllX(r, w);
    uint64_t by = shiftAmount(s, ws, w);
    fillZero(r, w);
    if (by >= w)
        return;
    extractBits(r, nwords(w), a, nwords(w), static_cast<uint32_t>(by));
}

void
ScalarOps::ashr(uint64_t *r, const uint64_t *a, uint32_t w,
                const uint64_t *s, uint32_t ws)
{
    if (anyXWords(a, w) || anyXWords(s, ws))
        return fillAllX(r, w);
    uint64_t by = shiftAmount(s, ws, w);
    bool sign = (a[(w - 1) / 64u] >> ((w - 1) % 64u)) & 1u;
    fillZero(r, w);
    if (by >= w) {
        if (sign)
            fillBits(r, 0, w);
        return;
    }
    extractBits(r, nwords(w), a, nwords(w), static_cast<uint32_t>(by));
    if (sign)
        fillBits(r, w - static_cast<uint32_t>(by), w);
}

void
ScalarOps::eq(uint64_t *r, const uint64_t *a, const uint64_t *b,
              uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return setX1(r);
    setBool(r, compareKnown(a, b, nwords(w)) == 0);
}

void
ScalarOps::ult(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return setX1(r);
    setBool(r, compareKnown(a, b, nwords(w)) < 0);
}

void
ScalarOps::ule(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return setX1(r);
    setBool(r, compareKnown(a, b, nwords(w)) <= 0);
}

namespace {

/** Known signed comparison: -1, 0, +1. */
int
compareSigned(const uint64_t *a, const uint64_t *b, uint32_t w)
{
    size_t top = (w - 1) / 64u;
    uint32_t bit = (w - 1) % 64u;
    int sa = (a[top] >> bit) & 1u, sb = (b[top] >> bit) & 1u;
    if (sa != sb)
        return sa == 1 ? -1 : 1;
    return compareKnown(a, b, nwords(w));
}

} // namespace

void
ScalarOps::slt(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return setX1(r);
    setBool(r, compareSigned(a, b, w) < 0);
}

void
ScalarOps::sle(uint64_t *r, const uint64_t *a, const uint64_t *b,
               uint32_t w)
{
    if (anyXWords(a, w) || anyXWords(b, w))
        return setX1(r);
    setBool(r, compareSigned(a, b, w) <= 0);
}

void
ScalarOps::caseEq(uint64_t *r, const uint64_t *a, const uint64_t *b,
                  uint32_t w)
{
    setBool(r, std::equal(a, a + 2 * nwords(w), b));
}

void
ScalarOps::concat(uint64_t *r, const uint64_t *hi, uint32_t whi,
                  const uint64_t *lo, uint32_t wlo)
{
    uint32_t w = whi + wlo;
    size_t n = nwords(w), nhi = nwords(whi), nlo = nwords(wlo);
    fillZero(r, w);
    for (size_t p = 0; p < 2; ++p) {
        std::copy(lo + p * nlo, lo + (p + 1) * nlo, r + p * n);
        depositBits(r + p * n, n, hi + p * nhi, nhi, wlo);
    }
}

void
ScalarOps::slice(uint64_t *r, const uint64_t *a, uint32_t wa,
                 uint32_t msb, uint32_t lsb)
{
    uint32_t w = msb - lsb + 1;
    size_t n = nwords(w), na = nwords(wa);
    for (size_t p = 0; p < 2; ++p) {
        extractBits(r + p * n, n, a + p * na, na, lsb);
        r[p * n + n - 1] &= topMask(w);
    }
}

void
ScalarOps::ite(uint64_t *r, const uint64_t *c, const uint64_t *t,
               const uint64_t *e, uint32_t w)
{
    size_t n = nwords(w);
    if (!(c[1] & 1u)) {
        const uint64_t *src = (c[0] & 1u) ? t : e;
        std::copy(src, src + 2 * n, r);
        return;
    }
    // X condition: bits where both arms agree and are known survive.
    for (size_t i = 0; i < n; ++i) {
        uint64_t agree = ~t[n + i] & ~e[n + i] & ~(t[i] ^ e[i]);
        r[i] = t[i] & agree;
        r[n + i] = ~agree;
    }
    r[2 * n - 1] &= topMask(w);
}

void
ScalarOps::zext(uint64_t *r, const uint64_t *a, uint32_t wa, uint32_t w)
{
    size_t n = nwords(w), na = nwords(wa);
    for (size_t p = 0; p < 2; ++p) {
        std::copy(a + p * na, a + (p + 1) * na, r + p * n);
        std::fill(r + p * n + na, r + (p + 1) * n, 0ull);
    }
}

void
ScalarOps::sext(uint64_t *r, const uint64_t *a, uint32_t wa, uint32_t w)
{
    zext(r, a, wa, w);
    size_t n = nwords(w), na = nwords(wa);
    uint64_t m = 1ull << ((wa - 1) % 64u);
    size_t top = (wa - 1) / 64u;
    if (a[na + top] & m)
        fillBits(r + n, wa, w);
    else if (a[top] & m)
        fillBits(r, wa, w);
}

bool
ScalarOps::matches(const uint64_t *got, uint32_t wg, const uint64_t *exp,
                   uint32_t we)
{
    // Width mismatches happen when a bug changes a port width (e.g.
    // the mux_k1 benchmark).  Compare zero-extended, the way a
    // testbench comparison against a wider vector would.
    size_t ng = nwords(wg), ne = nwords(we);
    size_t n = std::max(ng, ne);
    for (size_t i = 0; i < n; ++i) {
        uint64_t gd = i < ng ? got[i] : 0, gx = i < ng ? got[ng + i] : 0;
        uint64_t ed = i < ne ? exp[i] : 0, ex = i < ne ? exp[ne + i] : 0;
        uint64_t care = ~ex;
        if (((gx | (gd ^ ed)) & care) != 0)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Value: allocating wrappers over the ScalarOps kernels.
// ---------------------------------------------------------------------

Value::Value(uint32_t width) : _width(width)
{
    check(width > 0, "zero-width Value");
    // A defensive cap: widths beyond this are always the result of a
    // corrupted constant (e.g. a mutated part-select bound), and the
    // bit-level algorithms would effectively hang on them.
    if (width > (1u << 22))
        fatal("bit-vector width too large");
    _w.assign(2 * nwords(width), 0);
}

void
Value::normalize()
{
    size_t n = nwords(_width);
    uint64_t mask = topMask(_width);
    _w[n - 1] &= mask;
    _w[2 * n - 1] &= mask;
    for (size_t i = 0; i < n; ++i)
        _w[i] &= ~_w[n + i];
}

Value
Value::zeros(uint32_t width)
{
    return Value(width);
}

Value
Value::ones(uint32_t width)
{
    Value v(width);
    fillBits(v.data(), 0, width);
    return v;
}

Value
Value::allX(uint32_t width)
{
    Value v(width);
    fillAllX(v.data(), width);
    return v;
}

Value
Value::fromUint(uint32_t width, uint64_t value)
{
    Value v(width);
    v._w[0] = value;
    v.normalize();
    return v;
}

Value
Value::random(uint32_t width, Rng &rng)
{
    Value v(width);
    for (size_t i = 0; i < nwords(width); ++i)
        v._w[i] = rng.next();
    v.normalize();
    return v;
}

Value
Value::parseVerilog(std::string_view literal)
{
    std::string text;
    for (char c : literal) {
        if (c != '_' && !std::isspace(static_cast<unsigned char>(c)))
            text += c;
    }
    size_t tick = text.find('\'');
    if (tick == std::string::npos) {
        // Bare decimal: 32 bits per the Verilog standard.
        uint64_t value = 0;
        if (text.empty())
            fatal("empty integer literal");
        for (char c : text) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("malformed integer literal: " + std::string(literal));
            value = value * 10u + static_cast<uint64_t>(c - '0');
        }
        return fromUint(32, value);
    }

    uint32_t width = 32;
    if (tick > 0) {
        width = 0;
        for (size_t i = 0; i < tick; ++i) {
            char c = text[i];
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("malformed literal width: " + std::string(literal));
            width = width * 10u + static_cast<uint32_t>(c - '0');
        }
        if (width == 0 || width > 1u << 20)
            fatal("unsupported literal width: " + std::string(literal));
    }

    size_t pos = tick + 1;
    if (pos < text.size() &&
        (text[pos] == 's' || text[pos] == 'S')) {
        ++pos; // signedness marker; value bits are the same
    }
    if (pos >= text.size())
        fatal("malformed literal: " + std::string(literal));

    char base = static_cast<char>(
        std::tolower(static_cast<unsigned char>(text[pos])));
    ++pos;
    std::string digits = text.substr(pos);
    if (digits.empty())
        fatal("literal has no digits: " + std::string(literal));

    uint32_t bits_per_digit = 0;
    switch (base) {
      case 'b': bits_per_digit = 1; break;
      case 'o': bits_per_digit = 3; break;
      case 'h': bits_per_digit = 4; break;
      case 'd': bits_per_digit = 0; break;
      default:
        fatal("unknown literal base: " + std::string(literal));
    }

    Value v(width);
    if (bits_per_digit == 0) {
        uint64_t value = 0;
        for (char c : digits) {
            if (c == 'x' || c == 'X')
                return allX(width);
            if (!std::isdigit(static_cast<unsigned char>(c)))
                fatal("malformed decimal literal: " + std::string(literal));
            value = value * 10u + static_cast<uint64_t>(c - '0');
        }
        return fromUint(width, value);
    }

    uint32_t bit_pos = 0;
    for (size_t i = digits.size(); i-- > 0;) {
        char c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(digits[i])));
        uint32_t digit = 0;
        bool is_x = false;
        if (c == 'x' || c == 'z' || c == '?') {
            is_x = true; // Z folds into X (tri-states are pre-removed)
        } else if (c >= '0' && c <= '9') {
            digit = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            digit = static_cast<uint32_t>(c - 'a') + 10u;
        } else {
            fatal("malformed literal digit: " + std::string(literal));
        }
        if (digit >= (1u << bits_per_digit) && !is_x)
            fatal("digit out of range for base: " + std::string(literal));
        for (uint32_t b = 0; b < bits_per_digit; ++b) {
            if (bit_pos >= width)
                break;
            if (is_x) {
                v.setBit(bit_pos, -1);
            } else if ((digit >> b) & 1u) {
                v.setBit(bit_pos, 1);
            }
            ++bit_pos;
        }
    }
    // Verilog extends a leading x digit through the remaining bits.
    if (bit_pos < width && !digits.empty()) {
        char lead = static_cast<char>(
            std::tolower(static_cast<unsigned char>(digits.front())));
        if (lead == 'x' || lead == 'z' || lead == '?') {
            for (uint32_t b = bit_pos; b < width; ++b)
                v.setBit(b, -1);
        }
    }
    return v;
}

bool
Value::hasX() const
{
    return anyXWords(_w.data(), _width);
}

bool
Value::isZero() const
{
    return !hasX() && isZeroKnown(_w.data(), _width);
}

bool
Value::isNonZero() const
{
    return !hasX() && !isZeroKnown(_w.data(), _width);
}

uint64_t
Value::toUint64() const
{
    check(xmaskWord(0) == 0, "toUint64 on X value");
    return _w[0];
}

Value
Value::fromSpan(uint32_t width, const uint64_t *span)
{
    Value v(width);
    std::copy(span, span + v._w.size(), v._w.begin());
    return v;
}

std::string
Value::toBinaryString() const
{
    std::string out;
    out.reserve(_width);
    for (uint32_t i = _width; i-- > 0;) {
        int b = bit(i);
        out += b < 0 ? 'x' : static_cast<char>('0' + b);
    }
    return out;
}

std::string
Value::toVerilogLiteral() const
{
    if (!hasX() && _width % 4u == 0 && _width >= 8) {
        std::string digits;
        for (uint32_t i = _width; i >= 4; i -= 4) {
            uint32_t nibble = 0;
            for (uint32_t b = 0; b < 4; ++b)
                nibble |= static_cast<uint32_t>(bit(i - 4 + b)) << b;
            digits += "0123456789abcdef"[nibble];
        }
        return format("%u'h%s", _width, digits.c_str());
    }
    return format("%u'b%s", _width, toBinaryString().c_str());
}

std::string
Value::toDisplayString() const
{
    if (!hasX() && _width <= 64)
        return format("%llu", static_cast<unsigned long long>(_w[0]));
    return toBinaryString();
}

bool
Value::operator==(const Value &other) const
{
    return _width == other._width && _w == other._w;
}

bool
Value::matches(const Value &expected) const
{
    return ScalarOps::matches(span(), _width, expected.span(),
                              expected._width);
}

Value
Value::zext(uint32_t new_width) const
{
    check(new_width >= _width, "zext must not shrink");
    Value v(new_width);
    ScalarOps::zext(v.data(), span(), _width, new_width);
    return v;
}

Value
Value::sext(uint32_t new_width) const
{
    check(new_width >= _width, "sext must not shrink");
    Value v(new_width);
    ScalarOps::sext(v.data(), span(), _width, new_width);
    return v;
}

Value
Value::slice(uint32_t hi, uint32_t lo) const
{
    check(hi < _width && lo <= hi, "slice out of range");
    Value v(hi - lo + 1);
    ScalarOps::slice(v.data(), span(), _width, hi, lo);
    return v;
}

Value
Value::concat(const Value &low) const
{
    Value v(_width + low._width);
    ScalarOps::concat(v.data(), span(), _width, low.span(), low._width);
    return v;
}

Value
Value::replicate(uint32_t n) const
{
    check(n > 0, "replicate zero times");
    if (uint64_t(_width) * n > (1u << 22))
        fatal("bit-vector width too large");
    Value v = *this;
    for (uint32_t i = 1; i < n; ++i)
        v = v.concat(*this);
    return v;
}

#define RTLREPAIR_VALUE_BINARY(signature, kernel, out_width, what)      \
    Value Value::signature(const Value &rhs) const                     \
    {                                                                  \
        check(_width == rhs._width, what ": width mismatch");          \
        Value v(out_width);                                            \
        ScalarOps::kernel(v.data(), span(), rhs.span(), _width);       \
        return v;                                                      \
    }

RTLREPAIR_VALUE_BINARY(operator&, bitAnd, _width, "and")
RTLREPAIR_VALUE_BINARY(operator|, bitOr, _width, "or")
RTLREPAIR_VALUE_BINARY(operator^, bitXor, _width, "xor")
RTLREPAIR_VALUE_BINARY(operator+, add, _width, "add")
RTLREPAIR_VALUE_BINARY(operator-, sub, _width, "sub")
RTLREPAIR_VALUE_BINARY(operator*, mul, _width, "mul")
RTLREPAIR_VALUE_BINARY(udiv, udiv, _width, "udiv")
RTLREPAIR_VALUE_BINARY(urem, urem, _width, "urem")
RTLREPAIR_VALUE_BINARY(eq, eq, 1, "eq")
RTLREPAIR_VALUE_BINARY(ult, ult, 1, "ult")
RTLREPAIR_VALUE_BINARY(ule, ule, 1, "ule")
RTLREPAIR_VALUE_BINARY(slt, slt, 1, "slt")
RTLREPAIR_VALUE_BINARY(sle, sle, 1, "sle")
RTLREPAIR_VALUE_BINARY(caseEq, caseEq, 1, "caseEq")

#undef RTLREPAIR_VALUE_BINARY

Value
Value::operator~() const
{
    Value v(_width);
    ScalarOps::bitNot(v.data(), span(), _width);
    return v;
}

Value
Value::negate() const
{
    Value v(_width);
    ScalarOps::neg(v.data(), span(), _width);
    return v;
}

Value
Value::shl(const Value &amount) const
{
    Value v(_width);
    ScalarOps::shl(v.data(), span(), _width, amount.span(),
                   amount._width);
    return v;
}

Value
Value::lshr(const Value &amount) const
{
    Value v(_width);
    ScalarOps::lshr(v.data(), span(), _width, amount.span(),
                    amount._width);
    return v;
}

Value
Value::ashr(const Value &amount) const
{
    Value v(_width);
    ScalarOps::ashr(v.data(), span(), _width, amount.span(),
                    amount._width);
    return v;
}

Value
Value::ne(const Value &rhs) const
{
    Value e = eq(rhs);
    return e.hasX() ? e : ~e;
}

Value
Value::redAnd() const
{
    Value v(1);
    ScalarOps::redAnd(v.data(), span(), _width);
    return v;
}

Value
Value::redOr() const
{
    Value v(1);
    ScalarOps::redOr(v.data(), span(), _width);
    return v;
}

Value
Value::redXor() const
{
    Value v(1);
    ScalarOps::redXor(v.data(), span(), _width);
    return v;
}

Value
Value::ite(const Value &cond, const Value &then_v, const Value &else_v)
{
    check(cond._width == 1, "ite: condition must be 1 bit");
    check(then_v._width == else_v._width, "ite: arm width mismatch");
    Value v(then_v._width);
    ScalarOps::ite(v.data(), cond.span(), then_v.span(), else_v.span(),
                   then_v._width);
    return v;
}

Value
Value::xToZero() const
{
    Value v = *this;
    std::fill(v.xplane(), v.xplane() + nwords(_width), 0ull);
    return v;
}

Value
Value::xToRandom(Rng &rng) const
{
    Value v = *this;
    size_t n = nwords(_width);
    for (size_t i = 0; i < n; ++i) {
        v._w[i] |= rng.next() & v._w[n + i];
        v._w[n + i] = 0;
    }
    v.normalize();
    return v;
}

size_t
Value::hash() const
{
    size_t h = _width * 0x9e3779b97f4a7c15ull;
    auto mix = [&h](uint64_t w) {
        h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    size_t n = nwords(_width);
    for (size_t i = 0; i < n; ++i)
        mix(_w[i]);
    for (size_t i = 0; i < n; ++i)
        mix(_w[n + i] ^ 0x5555555555555555ull);
    return h;
}

} // namespace rtlrepair::bv
