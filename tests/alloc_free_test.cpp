// The replay cycle loop allocates nothing.
//
// This binary replaces the global operator new with a counting one.
// After construction and one warm-up cycle, 1,000 cycles of each hot
// loop must make zero heap allocations: the scalar Interpreter and
// the 64-lane VecInterpreter (set inputs, evaluate, compare outputs,
// step) and ConcreteRunner::run, on the instrumented counter_k1.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "benchmarks/registry.hpp"
#include "repair/driver.hpp"
#include "repair/windowing.hpp"
#include "sim/vec_sim.hpp"
#include "templates/synth_vars.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

// The replacements pair malloc with free by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace rtlrepair;
using bv::Value;

namespace {

constexpr size_t kCycles = 1000;

/** counter_k1 instrumented with the first template, and a
 *  self-consistent trace of 1 + kCycles cycles recorded from it with
 *  every change off (so a replay runs the whole trace). */
struct Fixture
{
    ir::TransitionSystem sys;
    trace::IoTrace trace;

    Fixture()
    {
        const benchmarks::LoadedBenchmark &lb =
            benchmarks::load("counter_k1");
        auto tmpl = std::move(templates::standardTemplates().front());
        templates::TemplateResult inst =
            tmpl->apply(*lb.buggy, lb.buggy_lib);
        elaborate::ElaborateOptions opts;
        opts.library = lb.buggy_lib;
        opts.synth_vars = inst.vars.specs();
        sys = elaborate::elaborate(*inst.instrumented, opts);

        trace::IoTrace resolved =
            repair::resolveTraceInputs(lb.tb, sim::XPolicy::Zero, 1);
        trace::InputSequence stim;
        stim.inputs = resolved.inputs;
        for (size_t c = 0; c <= kCycles; ++c)
            stim.rows.push_back(resolved.input_rows[c % resolved.length()]);
        trace = sim::record(sys, stim,
                            {sim::XPolicy::Zero, sim::XPolicy::Zero, 1});
    }

    /** Design input / output index of each trace column. */
    std::vector<size_t>
    inputMap() const
    {
        std::vector<size_t> out;
        for (const auto &col : trace.inputs)
            out.push_back(static_cast<size_t>(sys.inputIndex(col.name)));
        return out;
    }
};

const Fixture &
fixture()
{
    static Fixture f;
    return f;
}

/** Heap allocations made by @p body. */
template <typename F>
uint64_t
allocationsIn(F &&body)
{
    uint64_t before = g_allocations.load();
    body();
    return g_allocations.load() - before;
}

} // namespace

TEST(AllocFree, InterpreterCycleLoop)
{
    const Fixture &f = fixture();
    sim::Interpreter interp(f.sys, {sim::XPolicy::Zero,
                                    sim::XPolicy::Zero, 1});
    std::vector<size_t> in_map = f.inputMap();
    size_t mismatches = 0;
    auto cycle = [&](size_t c) {
        for (size_t i = 0; i < in_map.size(); ++i)
            interp.setInput(in_map[i], f.trace.input_rows[c][i]);
        interp.evalCycle();
        for (size_t o = 0; o < f.trace.outputs.size(); ++o) {
            if (!interp.outputMatches(o, f.trace.output_rows[c][o]))
                ++mismatches;
        }
        interp.step();
    };
    cycle(0);
    EXPECT_EQ(allocationsIn([&] {
                  for (size_t c = 1; c <= kCycles; ++c)
                      cycle(c);
              }),
              0u);
    EXPECT_EQ(mismatches, 0u);
}

TEST(AllocFree, VecInterpreterCycleLoop)
{
    const Fixture &f = fixture();
    sim::VecInterpreter vec(f.sys, 64);
    std::vector<Value> init =
        repair::resolveInitState(f.sys, sim::XPolicy::Zero, 1);
    for (size_t i = 0; i < init.size(); ++i)
        vec.setStateAll(i, init[i]);
    std::vector<size_t> in_map = f.inputMap();
    uint64_t live = vec.allLanes();
    auto cycle = [&](size_t c) {
        for (size_t i = 0; i < in_map.size(); ++i)
            vec.setInputAll(in_map[i], f.trace.input_rows[c][i]);
        vec.evalCycle();
        for (size_t o = 0; o < f.trace.outputs.size(); ++o)
            live &= vec.outputMatches(o, f.trace.output_rows[c][o]);
        vec.step();
    };
    cycle(0);
    EXPECT_EQ(allocationsIn([&] {
                  for (size_t c = 1; c <= kCycles; ++c)
                      cycle(c);
              }),
              0u);
    EXPECT_EQ(live, vec.allLanes());
}

// run() allocates a fixed amount per call (the assignment it binds),
// independent of trace length: a 1-cycle and a (1 + 1000)-cycle
// replay allocate the same.
TEST(AllocFree, ConcreteRunnerRun)
{
    const Fixture &f = fixture();
    trace::IoTrace one = f.trace;
    one.input_rows.resize(1);
    one.output_rows.resize(1);
    std::vector<Value> init =
        repair::resolveInitState(f.sys, sim::XPolicy::Zero, 1);
    repair::ConcreteRunner short_run(f.sys, one, init);
    repair::ConcreteRunner long_run(f.sys, f.trace, init);
    templates::SynthAssignment off;
    sim::ReplayResult r1, r2;
    uint64_t a1 = allocationsIn([&] { r1 = short_run.run(off); });
    uint64_t a2 = allocationsIn([&] { r2 = long_run.run(off); });
    EXPECT_TRUE(r1.passed);
    ASSERT_TRUE(r2.passed) << "failed at " << r2.first_failure;
    EXPECT_EQ(r2.first_failure, kCycles + 1);
    EXPECT_EQ(a2, a1);
}
