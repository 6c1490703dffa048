/**
 * @file
 * In-place 4-state operator kernels over raw word spans.
 *
 * Every operator's semantics is written exactly once per storage
 * layout, here, and everything else calls it: bv::Value and
 * bv::PackedValue operators are thin allocating wrappers, constant
 * folding goes through bv::Value, and the simulation tape
 * (sim/tape.hpp) runs the kernels directly on its arena.
 *
 * An operand of width @c w is one contiguous span holding a data
 * plane followed by an X plane:
 *  - ScalarOps (one run): @c nwords(w) little-endian words per plane;
 *  - PackedOps (64 lanes): @c w words per plane, one per bit
 *    position, bit L of each word belonging to lane L.
 *
 * Spans are canonical on input and output: bits above the width are
 * zero in both planes and data bits under X are zero.  A result span
 * never aliases an operand span.  Operand widths are the caller's
 * responsibility (the wrappers check them; the tape relies on
 * ir::TransitionSystem::typeCheck).
 */
#ifndef RTLREPAIR_BV_KERNELS_HPP
#define RTLREPAIR_BV_KERNELS_HPP

#include <cstddef>
#include <cstdint>

namespace rtlrepair::bv {

/** Words per plane of a @p width-bit scalar operand. */
constexpr size_t
nwords(uint32_t width)
{
    return (width + 63u) / 64u;
}

/** Valid-bit mask of the top word of a @p width-bit scalar plane. */
constexpr uint64_t
topMask(uint32_t width)
{
    return width % 64u == 0 ? ~0ull : ((1ull << (width % 64u)) - 1ull);
}

/**
 * The operator set, once per layout.  Argument order follows the
 * operator: @p r is the result span, @p a / @p b the operands,
 * @p w the result (and same-width operand) width.
 */
#define RTLREPAIR_BV_KERNEL_DECLS                                        \
    /** Words in one @p width-bit operand span (both planes). */        \
    static size_t spanWords(uint32_t width);                             \
    static void bitNot(uint64_t *r, const uint64_t *a, uint32_t w);      \
    static void neg(uint64_t *r, const uint64_t *a, uint32_t w);         \
    static void redAnd(uint64_t *r, const uint64_t *a, uint32_t wa);     \
    static void redOr(uint64_t *r, const uint64_t *a, uint32_t wa);      \
    static void redXor(uint64_t *r, const uint64_t *a, uint32_t wa);     \
    static void bitAnd(uint64_t *r, const uint64_t *a,                   \
                       const uint64_t *b, uint32_t w);                   \
    static void bitOr(uint64_t *r, const uint64_t *a,                    \
                      const uint64_t *b, uint32_t w);                    \
    static void bitXor(uint64_t *r, const uint64_t *a,                   \
                       const uint64_t *b, uint32_t w);                   \
    static void add(uint64_t *r, const uint64_t *a, const uint64_t *b,   \
                    uint32_t w);                                         \
    static void sub(uint64_t *r, const uint64_t *a, const uint64_t *b,   \
                    uint32_t w);                                         \
    static void mul(uint64_t *r, const uint64_t *a, const uint64_t *b,   \
                    uint32_t w);                                         \
    /** Division by zero yields all-X, as in Verilog. */                 \
    static void udiv(uint64_t *r, const uint64_t *a, const uint64_t *b,  \
                     uint32_t w);                                        \
    static void urem(uint64_t *r, const uint64_t *a, const uint64_t *b,  \
                     uint32_t w);                                        \
    /** Shifts: the amount @p s has its own width @p ws. */              \
    static void shl(uint64_t *r, const uint64_t *a, uint32_t w,          \
                    const uint64_t *s, uint32_t ws);                     \
    static void lshr(uint64_t *r, const uint64_t *a, uint32_t w,         \
                     const uint64_t *s, uint32_t ws);                    \
    static void ashr(uint64_t *r, const uint64_t *a, uint32_t w,         \
                     const uint64_t *s, uint32_t ws);                    \
    /** Relational: 1-bit result, X when any operand bit is X. */        \
    static void eq(uint64_t *r, const uint64_t *a, const uint64_t *b,    \
                   uint32_t w);                                          \
    static void ult(uint64_t *r, const uint64_t *a, const uint64_t *b,   \
                    uint32_t w);                                         \
    static void ule(uint64_t *r, const uint64_t *a, const uint64_t *b,   \
                    uint32_t w);                                         \
    static void slt(uint64_t *r, const uint64_t *a, const uint64_t *b,   \
                    uint32_t w);                                         \
    static void sle(uint64_t *r, const uint64_t *a, const uint64_t *b,   \
                    uint32_t w);                                         \
    /** Case equality (===): X compares literally; always known. */      \
    static void caseEq(uint64_t *r, const uint64_t *a,                   \
                       const uint64_t *b, uint32_t w);                   \
    /** {hi, lo}: @p hi becomes the upper bits. */                       \
    static void concat(uint64_t *r, const uint64_t *hi, uint32_t whi,    \
                       const uint64_t *lo, uint32_t wlo);                \
    /** Bits [msb:lsb] of the @p wa-bit operand @p a. */                 \
    static void slice(uint64_t *r, const uint64_t *a, uint32_t wa,       \
                      uint32_t msb, uint32_t lsb);                       \
    /** 1-bit @p c selects; an X condition merges the arms. */           \
    static void ite(uint64_t *r, const uint64_t *c, const uint64_t *t,   \
                    const uint64_t *e, uint32_t w);                      \
    static void zext(uint64_t *r, const uint64_t *a, uint32_t wa,        \
                     uint32_t w);                                        \
    static void sext(uint64_t *r, const uint64_t *a, uint32_t wa,        \
                     uint32_t w);

/** The one-run layout: bv::Value's storage. */
struct ScalarOps
{
    RTLREPAIR_BV_KERNEL_DECLS

    /**
     * Value::matches: every known bit of @p exp must equal @p got;
     * widths may differ (both sides compare zero-extended).
     */
    static bool matches(const uint64_t *got, uint32_t wg,
                        const uint64_t *exp, uint32_t we);
};

/** The 64-lane layout: bv::PackedValue's storage. */
struct PackedOps
{
    RTLREPAIR_BV_KERNEL_DECLS

    /** Lanes with any X bit / any known-one bit. */
    static uint64_t anyX(const uint64_t *a, uint32_t w);
    static uint64_t anyOne(const uint64_t *a, uint32_t w);

    /** PackedValue::laneMatches: lanes where @p got matches the
     *  packed @p exp (X in @p exp = don't care). */
    static uint64_t laneMatches(const uint64_t *got, uint32_t wg,
                                const uint64_t *exp, uint32_t we);
    /** laneMatches against one scalar-layout @p exp in every lane. */
    static uint64_t laneMatchesScalar(const uint64_t *got, uint32_t wg,
                                      const uint64_t *exp, uint32_t we);
    /** Lane @p l of the @p w-bit @p a as a ScalarOps span in @p out. */
    static void getLane(uint64_t *out, const uint64_t *a, uint32_t w,
                        uint32_t l);
    /** Overwrite lane @p l of the @p w-bit @p r with the ScalarOps
     *  span @p v of the same width. */
    static void setLane(uint64_t *r, uint32_t w, uint32_t l,
                        const uint64_t *v);
    /** Broadcast the @p wa-bit scalar-layout @p a into every lane of
     *  the @p w-bit @p r, zero-extended or truncated to fit. */
    static void broadcast(uint64_t *r, uint32_t w, const uint64_t *a,
                          uint32_t wa);
};

#undef RTLREPAIR_BV_KERNEL_DECLS

} // namespace rtlrepair::bv

#endif // RTLREPAIR_BV_KERNELS_HPP
