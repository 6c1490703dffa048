/**
 * @file
 * Wall-clock stopwatch used to enforce repair timeouts (§6.3 of the
 * paper uses 60 s for RTL-Repair and 16 h for CirFix).
 */
#ifndef RTLREPAIR_UTIL_STOPWATCH_HPP
#define RTLREPAIR_UTIL_STOPWATCH_HPP

#include <atomic>
#include <chrono>

namespace rtlrepair {

/** Monotonic stopwatch with second-granularity helpers. */
class Stopwatch
{
  public:
    Stopwatch() : _start(Clock::now()) {}

    /** Restart timing from now. */
    void reset() { _start = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - _start).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point _start;
};

/**
 * Cooperative cancellation flag shared between a scheduler and the
 * workers it may want to stop early (Ctrl-C, a client disconnect, or a
 * template the cascade can no longer reach).  Cheap to poll from inner
 * solver loops.
 */
class CancelToken
{
  public:
    void cancel() { _flag.store(true, std::memory_order_relaxed); }

    bool
    cancelled() const
    {
        return _flag.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> _flag{false};
};

/**
 * Budget that components poll to honour a global timeout.
 *
 * A deadline can be derived from a parent deadline plus a CancelToken;
 * expired() then reports true as soon as either the local budget, any
 * ancestor budget, or the token trips.  The repair driver chains the
 * caller's cancel token into its root deadline, and at jobs>1 each
 * template's deadline adds a horizon token that the scheduler trips
 * once the template can no longer affect the outcome.  Every solver
 * loop already polls its Deadline, so cancellation rides the existing
 * plumbing.
 */
class Deadline
{
  public:
    /** A deadline @p seconds from now; non-positive means unlimited. */
    explicit Deadline(double seconds = 0.0) : _limit(seconds) {}

    /** Derived deadline: expires with @p parent or when @p cancel
     *  trips (both may be null; an own budget may be added too). */
    Deadline(const Deadline *parent, const CancelToken *cancel,
             double seconds = 0.0)
        : _limit(seconds), _parent(parent), _cancel(cancel)
    {
    }

    /** True once the budget has been used up or the run is cancelled. */
    bool
    expired() const
    {
        if (_cancel && _cancel->cancelled())
            return true;
        if (_parent && _parent->expired())
            return true;
        return _limit > 0.0 && _watch.seconds() >= _limit;
    }

    /** True when expiry came from a cancel token (ours or an
     *  ancestor's), not from a time budget. */
    bool
    cancelled() const
    {
        if (_cancel && _cancel->cancelled())
            return true;
        return _parent && _parent->cancelled();
    }

    /** Seconds remaining (unlimited deadlines report a large value). */
    double
    remaining() const
    {
        double left = 1e18;
        if (_limit > 0.0) {
            left = _limit - _watch.seconds();
            left = left > 0.0 ? left : 0.0;
        }
        if (_parent) {
            double p = _parent->remaining();
            left = p < left ? p : left;
        }
        return left;
    }

    double elapsed() const { return _watch.seconds(); }

  private:
    Stopwatch _watch;
    double _limit;
    const Deadline *_parent = nullptr;
    const CancelToken *_cancel = nullptr;
};

} // namespace rtlrepair

#endif // RTLREPAIR_UTIL_STOPWATCH_HPP
