/**
 * @file
 * The benchmark's workload runner. One process runs one workload: it
 * repeats the workload's set of simulations until --seconds have passed
 * (and at least --min-sets sets ran), printing one JSON record per
 * simulation (and a pooled serving record per serve16 set) on stdout,
 * then the process's peak RSS.
 * run.py turns those records into the benchmark's metrics.
 *
 *   perfbench --workload paper16|scale1024|serve16 --seed N
 *             --seconds S [--min-sets K] [--trace 0|1] [--spans PATH]
 *             [--serve-gap CYCLES] [--serve-requests N]
 *
 * With --trace 1, untraced and traced sets alternate, untraced first and
 * last; traced sets count Protocol calls and record host-time spans,
 * which are written to --spans at the end. --serve-gap and --serve-requests
 * override serve16's load for the benchmark's own tests.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "apps/serve/serve.hh"
#include "calibrate.hh"
#include "probe.hh"

namespace
{

using perfbench::Sim;
using perfbench::modelConfig;
using perfbench::quoted;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    unsigned min_sets = 1;
    bool trace = false;
    std::string spans_path;
    std::uint64_t serve_gap = 30000;
    unsigned serve_requests = 2048;
};

/// Fixed loadgen seeds 1..kServeReference behind serve16's metrics.
constexpr unsigned kServeReference = 3;
/// The held-out schedule's loadgen seed is kHeldOutBase + --seed, which
/// never collides with a reference seed.
constexpr std::uint64_t kHeldOutBase = 1ull << 32;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--min-sets")
                a.min_sets = static_cast<unsigned>(std::stoul(v));
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--spans")
                a.spans_path = v;
            else if (k == "--serve-gap")
                a.serve_gap = std::stoull(v);
            else if (k == "--serve-requests")
                a.serve_requests = static_cast<unsigned>(std::stoul(v));
            else
                usage(("unknown option " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.min_sets == 0 || a.serve_gap == 0 || a.serve_requests == 0)
        usage("--min-sets, --serve-gap and --serve-requests must be > 0");
    return a;
}

/**
 * The simulations of one workload set. Why these three: see
 * perfbench/README.md. Every configuration is built from model fields
 * only (modelConfig).
 */
std::vector<Sim>
workloadSims(const Args &a)
{
    std::vector<Sim> sims;
    if (a.workload == "paper16") {
        for (const std::string &app : apps::names()) {
            for (const char *v : {"Base", "IPD", "AURC"}) {
                sims.push_back({app + "/" + v, v, modelConfig(16, v),
                                [app]() {
                                    return apps::make(app,
                                                      apps::Scale::small);
                                }});
            }
        }
    } else if (a.workload == "scale1024") {
        sims.push_back({"Water/p=1024", "Base",
                        modelConfig(1024, "Base", 8, 16), []() {
                            return apps::make("Water", apps::Scale::small);
                        }});
    } else if (a.workload == "serve16") {
        // kServeReference fixed loadgen seeds give the reported latency
        // percentiles: the tail of one Poisson schedule swings by a
        // quarter or more from seed to seed, far beyond any bound a
        // regression check could use. The schedule drawn from --seed is
        // held out: it is run, validated, digested and guarded on every
        // run, so no change is tuned to the reference schedules alone.
        for (unsigned k = 0; k <= kServeReference; ++k) {
            const bool held_out = k == kServeReference;
            apps::ServeApp::Params prm;
            prm.load.seed = held_out ? kHeldOutBase + a.seed : k + 1;
            prm.load.keys_log2 = 10;
            prm.load.requests_per_node = a.serve_requests;
            prm.load.read_pct = 80;
            prm.load.zipf_theta = 0.9;
            prm.load.arrival = apps::serve::Arrival::poisson;
            prm.load.mean_gap_cycles = a.serve_gap;
            prm.streams = 2;
            prm.stripes = 16;
            sims.push_back({"Serve/IPD/seed=" +
                                std::to_string(prm.load.seed),
                            "IPD", modelConfig(16, "IPD"),
                            [prm]() {
                                return std::make_unique<apps::ServeApp>(prm);
                            },
                            !held_out});
        }
    } else {
        usage(("unknown workload '" + a.workload + "'").c_str());
    }
    return sims;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printSim(unsigned set, bool traced, const Sim &sim,
         const perfbench::SimResult &r, double wall_s, double cal_s)
{
    std::ostringstream os;
    os << "{\"type\":\"sim\",\"set\":" << set
       << ",\"traced\":" << (traced ? "true" : "false")
       << ",\"reference\":" << (sim.reference ? "true" : "false")
       << ",\"name\":" << quoted(r.name)
       << ",\"variant\":" << quoted(r.variant)
       << ",\"ok\":" << (r.ok ? "true" : "false")
       << ",\"error\":" << quoted(r.error) << ",\"digest\":\""
       << std::hex << r.digest << std::dec << "\""
       << ",\"exec_ticks\":" << r.exec_ticks
       << ",\"host\":{\"wall_s\":" << num(wall_s)
       << ",\"cal_s\":" << num(cal_s)
       << ",\"construct_s\":" << num(r.construct_s)
       << ",\"run_s\":" << num(r.run_s) << ",\"plan_s\":" << num(r.plan_s)
       << ",\"validate_s\":" << num(r.validate_s)
       << ",\"destruct_s\":" << num(r.destruct_s) << "},\"counts\":{";
    const char *sep = "";
    for (const auto &[k, v] : r.counts) {
        os << sep << quoted(k) << ":" << num(v);
        sep = ",";
    }
    os << "}";
    if (r.serving) {
        // The backlog guard's inputs, per simulation.
        const perfbench::ServeStats s = perfbench::serveStats(r.requests);
        os << ",\"backlog\":{\"early_queue_mean\":"
           << num(s.early_queue_mean)
           << ",\"late_queue_mean\":" << num(s.late_queue_mean)
           << ",\"service_mean\":" << num(s.service_mean) << "}";
    }
    os << "}\n";
    std::cout << os.str() << std::flush;
}

/** Request percentiles pooled over a set's reference serving runs. */
void
printServe(unsigned set, bool traced,
           const std::vector<apps::ServeApp::ReqLog> &pooled)
{
    const perfbench::ServeStats s = perfbench::serveStats(pooled);
    std::cout << "{\"type\":\"serve\",\"set\":" << set
              << ",\"traced\":" << (traced ? "true" : "false")
              << ",\"requests\":" << s.requests << ",\"reads\":" << s.reads
              << ",\"writes\":" << s.writes << ",\"read_p50\":" << s.read_p50
              << ",\"read_p999\":" << s.read_p999
              << ",\"write_p50\":" << s.write_p50
              << ",\"write_p99\":" << s.write_p99
              << ",\"read_beyond_p999\":" << s.read_beyond_p999
              << ",\"write_beyond_p99\":" << s.write_beyond_p99
              << ",\"queue_p99\":" << s.queue_p99
              << ",\"service_p99\":" << s.service_p99 << "}\n";
}

/**
 * Mean time of a batch of host-speed probes taken after @p span_s
 * seconds of simulation: one probe per 0.4 s, at least one, so long
 * simulations get a steadier speed estimate for about 5 % extra time.
 */
double
probe(double span_s)
{
    const unsigned n = 1 + static_cast<unsigned>(span_s / 0.4);
    double t = 0;
    for (unsigned i = 0; i < n; ++i)
        t += perfbench::calibrate();
    return t / n;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    const std::vector<Sim> sims = workloadSims(a);
    perfbench::Spans spans;

    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    for (unsigned set = 0;; ++set) {
        // --trace 1 alternates untraced and traced sets, so both see
        // the same host conditions, and ends on an untraced set: set 0
        // runs in a cold process heap and is left out of the overhead.
        // Each traced set gets a root span.
        const bool traced = a.trace && set % 2 == 1;
        const int root = traced ? spans.begin("workload.set", "") : -1;
        // Each simulation is bracketed by host-speed probes and reports
        // the mean of the probe batches before and after it; the probes
        // stay out of the simulation's wall time.
        std::vector<apps::ServeApp::ReqLog> pooled;
        double before = probe(0);
        for (const Sim &s : sims) {
            const auto t0 = Clock::now();
            perfbench::SimResult r = perfbench::runSim(s, traced, spans);
            const double sim_wall =
                std::chrono::duration<double>(Clock::now() - t0).count();
            const double after = probe(sim_wall);
            printSim(set, traced, s, r, sim_wall, (before + after) / 2);
            before = after;
            if (s.reference)
                pooled.insert(pooled.end(), r.requests.begin(),
                              r.requests.end());
        }
        if (!pooled.empty())
            printServe(set, traced, pooled);
        if (traced)
            spans.end(root);
        const unsigned done = set + 1;
        if (elapsed() >= a.seconds && done >= a.min_sets &&
            (!a.trace || done % 2 == 1))
            break;
    }

    if (!a.spans_path.empty())
        spans.write(a.spans_path);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // ru_maxrss is in KiB on Linux.
    std::cout << "{\"type\":\"end\",\"peak_rss_mb\":"
              << num(static_cast<double>(ru.ru_maxrss) / 1024.0) << "}\n";
    return 0;
}
