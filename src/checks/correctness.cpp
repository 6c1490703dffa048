#include "checks/correctness.hpp"

#include "elaborate/elaborate.hpp"
#include "gates/gate_sim.hpp"
#include "sim/event_sim.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::checks {

namespace {

/** Synthesis-semantics replay (IR interpreter, zero-X policy). */
bool
synthesisReplay(const verilog::Module &mod,
                const std::vector<const verilog::Module *> &library,
                const trace::IoTrace &io, std::string *error)
{
    try {
        elaborate::ElaborateOptions opts;
        opts.library = library;
        ir::TransitionSystem sys = elaborate::elaborate(mod, opts);
        sim::Interpreter interp(
            sys, sim::SimOptions{sim::XPolicy::Zero,
                                 sim::XPolicy::Zero, 1});
        return sim::replay(interp, io).passed;
    } catch (const FatalError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

bool
gateLevelReplay(const verilog::Module &mod,
                const std::vector<const verilog::Module *> &library,
                const trace::IoTrace &io, std::string *error)
{
    try {
        elaborate::ElaborateOptions opts;
        opts.library = library;
        ir::TransitionSystem sys = elaborate::elaborate(mod, opts);
        gates::GateNetlist net = gates::lower(sys);
        return gates::gateReplay(net, io).passed;
    } catch (const FatalError &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

/** Event-driven replay verdict; an unsimulatable design fails. */
bool
eventReplayPassed(const verilog::Module &mod,
                  const std::vector<const verilog::Module *> &library,
                  const std::string &clock, const trace::IoTrace &io,
                  bool reverse)
{
    try {
        return sim::eventReplay(mod, library, clock, io, reverse).passed;
    } catch (const FatalError &) {
        return false;
    }
}

} // namespace

std::string
CheckReport::cells() const
{
    auto cell = [](const std::optional<bool> &v) {
        if (!v)
            return "  ";
        return *v ? "ok" : "XX";
    };
    return format("tb:%s gate:%s sim2:%s ext:%s => %s",
                  cell(testbench), cell(gate_level),
                  cell(second_simulator), cell(extended),
                  overall ? "PASS" : "FAIL");
}

CheckReport
checkRepair(const CheckInputs &inputs)
{
    check(inputs.golden && inputs.repaired && inputs.tb,
          "checkRepair: missing inputs");
    CheckReport report;

    // 1. Original testbench under event-driven simulation.
    report.testbench = eventReplayPassed(
        *inputs.repaired, inputs.library, inputs.clock, *inputs.tb,
        /*reverse=*/false);

    // 2. Gate-level: applicable only if the ground truth passes it.
    std::string golden_err;
    bool golden_gate = gateLevelReplay(*inputs.golden, inputs.library,
                                       *inputs.tb, &golden_err);
    if (golden_gate) {
        std::string err;
        report.gate_level = gateLevelReplay(
            *inputs.repaired, inputs.library, *inputs.tb, &err);
        if (!*report.gate_level && !err.empty())
            report.detail += "gate-level: " + err + "\n";
    } else {
        report.detail +=
            "gate-level check skipped (ground truth fails it";
        if (!golden_err.empty())
            report.detail += ": " + golden_err;
        report.detail += ")\n";
    }

    // 3. Second simulator: reversed scheduling + synthesis replay,
    //    applicable only if the ground truth agrees under both.
    bool golden_second =
        eventReplayPassed(*inputs.golden, inputs.library, inputs.clock,
                          *inputs.tb, /*reverse=*/true) &&
        synthesisReplay(*inputs.golden, inputs.library, *inputs.tb,
                        nullptr);
    if (golden_second) {
        bool rev = eventReplayPassed(*inputs.repaired, inputs.library,
                                     inputs.clock, *inputs.tb,
                                     /*reverse=*/true);
        std::string err;
        bool synth = synthesisReplay(*inputs.repaired, inputs.library,
                                     *inputs.tb, &err);
        report.second_simulator = rev && synth;
        if (!synth && !err.empty())
            report.detail += "second-simulator: " + err + "\n";
    } else {
        report.detail += "second-simulator check skipped (ground "
                         "truth disagrees under it)\n";
    }

    // 4. Extended testbench.
    if (inputs.extended_tb) {
        report.extended = eventReplayPassed(
            *inputs.repaired, inputs.library, inputs.clock,
            *inputs.extended_tb, /*reverse=*/false);
    }

    report.overall = report.testbench.value_or(false);
    if (report.gate_level)
        report.overall = report.overall && *report.gate_level;
    if (report.second_simulator)
        report.overall = report.overall && *report.second_simulator;
    if (report.extended)
        report.overall = report.overall && *report.extended;
    return report;
}

} // namespace rtlrepair::checks
