/**
 * @file
 * Self-test of the benchmark's probes (run by perfbench/test_perfbench.py):
 *  - the run digest changes when any single simulated statistic, count
 *    or logged request field changes;
 *  - the counting Protocol decorator and the span-recording Workload
 *    leave every simulated statistic unchanged;
 *  - a simulation that throws comes back failed, with the error text.
 * Prints one line per failed check and exits non-zero if any failed.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "apps/apps.hh"
#include "apps/serve/serve.hh"
#include "harness/runner.hh"
#include "probe.hh"

namespace
{

int failures = 0;
int checks = 0;

void
expect(bool ok, const std::string &what)
{
    ++checks;
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

struct Run
{
    dsm::RunResult result;
    std::map<std::string, double> counts;
    std::vector<apps::ServeApp::ReqLog> requests;

    std::uint64_t
    digest() const
    {
        return perfbench::digestRun(result, counts, requests);
    }
};

Run
simulate(const perfbench::Sim &sim)
{
    Run run;
    dsm::System sys(sim.cfg, harness::makeProtocol(sim.cfg));
    const std::unique_ptr<dsm::Workload> app = sim.make();
    run.result = sys.run(*app);
    run.counts = perfbench::collectCounts(sys, run.result);
    if (const auto *s = dynamic_cast<const apps::ServeApp *>(app.get()))
        for (unsigned n = 0; n < sim.cfg.num_procs; ++n)
            run.requests.insert(run.requests.end(), s->log(n).begin(),
                                s->log(n).end());
    return run;
}

/** Bump one value of a copy of @p base; the digest must change. */
void
mutation(const Run &base, const std::string &what,
         const std::function<void(Run &)> &bump)
{
    Run m = base;
    bump(m);
    expect(m.digest() != base.digest(), "digest misses a change to " + what);
}

/** Every counter, accum, histogram bucket and sketch field of @p s. */
void
mutateSnapshot(const Run &base, const std::string &path,
               const std::function<sim::StatSnapshot &(Run &)> &pick)
{
    Run copy = base;
    const sim::StatSnapshot s = pick(copy);
    for (std::size_t i = 0; i < s.counters.size(); ++i)
        mutation(base, path + s.counters[i].name,
                 [&](Run &r) { pick(r).counters[i].value += 1; });
    for (std::size_t i = 0; i < s.accums.size(); ++i) {
        mutation(base, path + s.accums[i].name + ".sum",
                 [&](Run &r) { pick(r).accums[i].sum += 1; });
        mutation(base, path + s.accums[i].name + ".samples",
                 [&](Run &r) { pick(r).accums[i].samples += 1; });
    }
    for (std::size_t i = 0; i < s.hists.size(); ++i)
        for (std::size_t b = 0; b < s.hists[i].counts.size(); ++b)
            mutation(base, path + s.hists[i].name + " bucket",
                     [&](Run &r) { pick(r).hists[i].counts[b] += 1; });
    for (std::size_t i = 0; i < s.sketches.size(); ++i) {
        mutation(base, path + s.sketches[i].name + ".p99",
                 [&](Run &r) { pick(r).sketches[i].p99 += 1; });
        mutation(base, path + s.sketches[i].name + ".count",
                 [&](Run &r) { pick(r).sketches[i].count += 1; });
    }
    for (std::size_t c = 0; c < s.children.size(); ++c)
        mutateSnapshot(base, path + s.children[c].name + ".",
                       [&pick, c](Run &r) -> sim::StatSnapshot & {
                           return pick(r).children[c];
                       });
}

void
digestCatchesEverySingleChange(const perfbench::Sim &sim)
{
    const Run base = simulate(sim);
    expect(simulate(sim).digest() == base.digest(),
           sim.name + ": digest not repeatable");

    mutation(base, "exec_ticks", [](Run &r) { r.result.exec_ticks += 1; });
    for (std::size_t p = 0; p < base.result.bd.size(); ++p) {
        for (unsigned c = 0; c < dsm::num_cats; ++c)
            mutation(base, "bd cycles",
                     [&](Run &r) { r.result.bd[p].cycles[c] += 1; });
        mutation(base, "bd diff_op_cycles",
                 [&](Run &r) { r.result.bd[p].diff_op_cycles += 1; });
        mutation(base, "bd diff_op_ctrl_cycles",
                 [&](Run &r) { r.result.bd[p].diff_op_ctrl_cycles += 1; });
    }
    mutation(base, "net.messages", [](Run &r) { r.result.net.messages++; });
    mutation(base, "net.bytes", [](Run &r) { r.result.net.bytes++; });
    mutation(base, "net.latency_cycles",
             [](Run &r) { r.result.net.latency_cycles++; });
    mutation(base, "net.contention_cycles",
             [](Run &r) { r.result.net.contention_cycles++; });
    mutateSnapshot(base, "stats:", [](Run &r) -> sim::StatSnapshot & {
        return r.result.stats;
    });
    mutateSnapshot(base, "app_stats:", [](Run &r) -> sim::StatSnapshot & {
        return r.result.app_stats;
    });
    for (const auto &kv : base.counts) {
        const std::string key = kv.first;
        mutation(base, "count " + key, [&](Run &r) { r.counts[key] += 1; });
    }
    for (std::size_t i = 0; i < base.requests.size(); i += 97) {
        mutation(base, "request done tick",
                 [&](Run &r) { r.requests[i].done += 1; });
        mutation(base, "request kind",
                 [&](Run &r) { r.requests[i].is_write ^= true; });
    }
}

void
tracingLeavesResultsUnchanged(const perfbench::Sim &sim)
{
    perfbench::Spans spans;
    const perfbench::SimResult plain = perfbench::runSim(sim, false, spans);
    const perfbench::SimResult traced = perfbench::runSim(sim, true, spans);
    expect(plain.ok && traced.ok, sim.name + ": run failed");
    expect(plain.digest == traced.digest,
           sim.name + ": traced digest differs from untraced");
    expect(traced.counts.count("dsm.slow_path_calls") == 1 &&
               traced.counts.at("dsm.slow_path_calls") > 0,
           sim.name + ": decorator counted no ensureAccess calls");
    expect(plain.counts.count("dsm.slow_path_calls") == 0,
           sim.name + ": untraced run reports call counts");
    bool plan = false, validate = false;
    for (const auto &s : spans.all()) {
        plan |= s.name == "apps.plan";
        validate |= s.name == "apps.validate";
        expect(s.end_ns >= s.start_ns, "span " + s.name + " ends early");
    }
    expect(plan && validate, sim.name + ": plan/validate spans missing");
}

/** A workload whose validate() always fails. */
class Broken final : public dsm::Workload
{
  public:
    std::string name() const override { return "Broken"; }
    void plan(dsm::GlobalHeap &, const dsm::SysConfig &) override {}
    void run(dsm::Proc &) override {}
    void
    validate(dsm::System &) override
    {
        ncp2_fatal("deliberately wrong result");
    }
};

void
failuresAreCaught()
{
    perfbench::Spans spans;
    const int root = spans.begin("workload.set", "");
    const perfbench::Sim sim{"Broken", "Base", perfbench::modelConfig(4, "Base"),
                             [] { return std::make_unique<Broken>(); }};
    for (bool traced : {false, true}) {
        const perfbench::SimResult r = perfbench::runSim(sim, traced, spans);
        expect(!r.ok && r.error.find("deliberately wrong") != std::string::npos,
               "a failing validate() was not reported");
        expect(spans.depth() == 1, "a throw left the simulation's spans open");
    }
    spans.end(root);
}

} // namespace

int
main()
{
    const perfbench::Sim water{
        "Water/IPD", "IPD", perfbench::modelConfig(4, "IPD"),
        [] { return apps::make("Water", apps::Scale::tiny); }};
    const perfbench::Sim radix{
        "Radix/AURC", "AURC", perfbench::modelConfig(4, "AURC"),
        [] { return apps::make("Radix", apps::Scale::tiny); }};
    apps::ServeApp::Params prm;
    prm.load.requests_per_node = 64;
    prm.load.mean_gap_cycles = 30000;
    const perfbench::Sim serve{
        "Serve/IPD", "IPD", perfbench::modelConfig(4, "IPD"),
        [prm] { return std::make_unique<apps::ServeApp>(prm); }};

    for (const auto *sim : {&water, &radix, &serve}) {
        digestCatchesEverySingleChange(*sim);
        tracingLeavesResultsUnchanged(*sim);
    }
    failuresAreCaught();
    std::printf("%d/%d checks passed\n", checks - failures, checks);
    return failures == 0 ? 0 : 1;
}
