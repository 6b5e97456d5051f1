#include "probe.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "harness/runner.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank percentile of sorted @p v: the value at rank ceil(q n). */
std::uint64_t
rankOf(const std::vector<std::uint64_t> &v, double q)
{
    if (v.empty())
        return 0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size()) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::uint64_t
beyond(const std::vector<std::uint64_t> &v, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size()) - 1e-9));
    return v.size() - std::min(rank, v.size());
}

} // namespace

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

// ---------------------------------------------------------------- Digest

void
Digest::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= b[i];
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(std::uint64_t v)
{
    bytes(&v, sizeof v);
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
}

void
Digest::add(const sim::StatSnapshot &s)
{
    add(s.name);
    for (const auto &c : s.counters) {
        add(c.name);
        add(c.value);
    }
    for (const auto &a : s.accums) {
        add(a.name);
        add(a.sum);
        add(a.samples);
    }
    for (const auto &h : s.hists) {
        add(h.name);
        add(h.total);
        add(h.max);
        for (double b : h.bounds)
            add(b);
        for (std::uint64_t c : h.counts)
            add(c);
    }
    for (const auto &q : s.sketches) {
        add(q.name);
        for (std::uint64_t v : {q.count, q.sum, q.max, q.p50, q.p99, q.p999})
            add(v);
    }
    add(static_cast<std::uint64_t>(s.children.size()));
    for (const auto &c : s.children)
        add(c);
}

void
Digest::add(const dsm::RunResult &r)
{
    add(static_cast<std::uint64_t>(r.exec_ticks));
    add(static_cast<std::uint64_t>(r.bd.size()));
    for (const dsm::Breakdown &b : r.bd) {
        for (std::uint64_t c : b.cycles)
            add(c);
        add(b.diff_op_cycles);
        add(b.diff_op_ctrl_cycles);
    }
    add(r.net.messages);
    add(r.net.bytes);
    add(r.net.latency_cycles);
    add(r.net.contention_cycles);
    add(r.stats);
    add(r.app_stats);
}

std::uint64_t
digestRun(const dsm::RunResult &r, const std::map<std::string, double> &counts,
          const std::vector<apps::ServeApp::ReqLog> &requests)
{
    Digest d;
    d.add(r);
    for (const auto &[k, v] : counts) {
        d.add(k);
        d.add(v);
    }
    for (const auto &q : requests) {
        for (std::uint64_t v :
             {q.arrival, q.start, q.done, q.key,
              static_cast<std::uint64_t>(q.stream),
              static_cast<std::uint64_t>(q.is_write)})
            d.add(v);
    }
    return d.value();
}

// ----------------------------------------------------------------- Spans

int
Spans::begin(const std::string &name, const std::string &sim)
{
    Span s;
    s.name = name;
    s.sim = sim;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Spans::end(int idx)
{
    if (open_.empty() || open_.back() != idx)
        throw std::logic_error("span closed out of order");
    spans_[static_cast<std::size_t>(idx)].end_ns = nowNs();
    open_.pop_back();
}

void
Spans::unwindTo(std::size_t depth)
{
    while (open_.size() > depth)
        end(open_.back());
}

double
Spans::seconds(int idx) const
{
    const Span &s = spans_[static_cast<std::size_t>(idx)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

void
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"name\":" << quoted(s.name) << ",\"sim\":" << quoted(s.sim)
           << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"parent\":" << s.parent << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

// -------------------------------------------------------------- configs

dsm::SysConfig
modelConfig(unsigned procs, const std::string &variant,
            unsigned barrier_radix, unsigned mesh_cluster)
{
    dsm::SysConfig cfg;
    cfg.num_procs = procs;
    cfg.heap_bytes = 64ull << 20;
    if (variant == "AURC") {
        cfg.protocol = dsm::ProtocolKind::aurc;
    } else if (variant == "IPD") {
        cfg.protocol = dsm::ProtocolKind::treadmarks;
        cfg.mode.offload = true;
        cfg.mode.prefetch = true;
        cfg.mode.hw_diffs = true;
    } else if (variant == "Base") {
        cfg.protocol = dsm::ProtocolKind::treadmarks;
    } else {
        throw std::invalid_argument("unknown variant " + variant);
    }
    cfg.barrier_radix = barrier_radix;
    cfg.mesh_cluster = mesh_cluster;
    return cfg;
}

// ------------------------------------------------------------- readouts

ServeStats
serveStats(const std::vector<apps::ServeApp::ReqLog> &requests)
{
    std::vector<std::uint64_t> rd, wr, queue, service;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_arrival;
    for (const auto &q : requests) {
        (q.is_write ? wr : rd).push_back(q.done - q.arrival);
        queue.push_back(q.start - q.arrival);
        service.push_back(q.done - q.start);
        by_arrival.emplace_back(q.arrival, q.start - q.arrival);
    }
    for (auto *v : {&rd, &wr, &queue, &service})
        std::sort(v->begin(), v->end());
    std::sort(by_arrival.begin(), by_arrival.end());

    ServeStats s;
    s.requests = by_arrival.size();
    s.reads = rd.size();
    s.writes = wr.size();
    s.read_p50 = rankOf(rd, 0.50);
    s.read_p999 = rankOf(rd, 0.999);
    s.read_beyond_p999 = beyond(rd, 0.999);
    s.write_p50 = rankOf(wr, 0.50);
    s.write_p99 = rankOf(wr, 0.99);
    s.write_beyond_p99 = beyond(wr, 0.99);
    s.queue_p99 = rankOf(queue, 0.99);
    s.service_p99 = rankOf(service, 0.99);

    const std::size_t quarter = by_arrival.size() / 4;
    if (quarter > 0) {
        double early = 0, late = 0;
        for (std::size_t i = 0; i < quarter; ++i) {
            early += static_cast<double>(by_arrival[i].second);
            late += static_cast<double>(
                by_arrival[by_arrival.size() - 1 - i].second);
        }
        s.early_queue_mean = early / static_cast<double>(quarter);
        s.late_queue_mean = late / static_cast<double>(quarter);
    }
    double svc = 0;
    for (std::uint64_t v : service)
        svc += static_cast<double>(v);
    s.service_mean =
        service.empty() ? 0.0 : svc / static_cast<double>(service.size());
    return s;
}

std::map<std::string, double>
collectCounts(dsm::System &sys, const dsm::RunResult &r)
{
    std::map<std::string, double> c;
    auto sum = [&](const char *key, auto f) {
        double v = 0;
        for (unsigned i = 0; i < sys.nprocs(); ++i)
            v += static_cast<double>(f(sys.node(i)));
        c[key] = v;
    };

    double events = 0;
    for (unsigned q = 0; q < sys.sched().size(); ++q)
        events += static_cast<double>(sys.sched().queue(q).executed());
    c["sim.events"] = events;
    sum("sim.fiber_yields", [](dsm::Node &n) { return n.cpu.yields(); });

    sum("mem.accesses",
        [](dsm::Node &n) { return n.tlb.hits() + n.tlb.misses(); });
    sum("mem.tlb_misses", [](dsm::Node &n) { return n.tlb.misses(); });
    sum("mem.cache_probes", [](dsm::Node &n) {
        return n.cache.hits() + n.cache.misses() + n.cache.writeHits() +
               n.cache.writeMisses();
    });
    sum("mem.cache_misses", [](dsm::Node &n) {
        return n.cache.misses() + n.cache.writeMisses();
    });
    sum("mem.bus_busy_cycles",
        [](dsm::Node &n) { return n.memory.bus().busyCycles(); });
    sum("pcib.busy_cycles",
        [](dsm::Node &n) { return n.pci.bus().busyCycles(); });

    sum("ctrl.commands",
        [](dsm::Node &n) { return n.controller.commandsRun(); });
    sum("ctrl.core_busy_cycles",
        [](dsm::Node &n) { return n.controller.coreBusyCycles(); });
    sum("ctrl.queue_wait_cycles",
        [](dsm::Node &n) { return n.controller.queueCycles(); });
    sum("ctrl.dma_busy_cycles",
        [](dsm::Node &n) { return n.controller.dmaBusyCycles(); });

    c["net.messages"] = static_cast<double>(r.net.messages);
    c["net.bytes"] = static_cast<double>(r.net.bytes);
    c["net.latency_cycles"] = static_cast<double>(r.net.latency_cycles);
    c["net.contention_cycles"] =
        static_cast<double>(r.net.contention_cycles);

    const dsm::Breakdown t = r.total();
    c["dsm.busy_cycles"] = static_cast<double>(t.get(dsm::Cat::busy));
    c["dsm.data_cycles"] = static_cast<double>(t.get(dsm::Cat::data));
    c["dsm.synch_cycles"] = static_cast<double>(t.get(dsm::Cat::synch));
    c["dsm.ipc_cycles"] = static_cast<double>(t.get(dsm::Cat::ipc));
    c["dsm.others_cycles"] = static_cast<double>(t.others());
    c["dsm.idle_cycles"] = static_cast<double>(t.get(dsm::Cat::idle));
    c["dsm.diff_cpu_cycles"] = static_cast<double>(t.diff_op_cycles);
    c["dsm.diff_ctrl_cycles"] = static_cast<double>(t.diff_op_ctrl_cycles);

    // Protocol counters ("tmk.*" / "aurc.*"), as the stat tree names them.
    for (const auto &[k, v] : r.stats.flat())
        c[k] = v;
    return c;
}

// ------------------------------------------------------------------ runs

SimResult
runSim(const Sim &sim, bool traced, Spans &spans)
{
    SimResult res;
    res.name = sim.name;
    res.variant = sim.variant;
    const std::size_t depth = spans.depth();
    try {
        std::unique_ptr<dsm::Protocol> proto = harness::makeProtocol(sim.cfg);
        CountingProtocol *counting = nullptr;
        if (traced) {
            auto wrapped =
                std::make_unique<CountingProtocol>(std::move(proto));
            counting = wrapped.get();
            proto = std::move(wrapped);
        }
        const std::unique_ptr<dsm::Workload> app = sim.make();
        SpanWorkload span_app(*app, spans, sim.name);
        dsm::Workload &workload =
            traced ? static_cast<dsm::Workload &>(span_app) : *app;

        int span = traced ? spans.begin("dsm.construct", sim.name) : -1;
        auto t0 = Clock::now();
        auto sys = std::make_unique<dsm::System>(sim.cfg, std::move(proto));
        res.construct_s = secondsSince(t0);
        if (traced)
            spans.end(span);

        span = traced ? spans.begin("dsm.run", sim.name) : -1;
        const std::size_t first_child = spans.all().size();
        t0 = Clock::now();
        const dsm::RunResult r = sys->run(workload);
        res.run_s = secondsSince(t0);
        if (traced) {
            spans.end(span);
            for (std::size_t i = first_child; i < spans.all().size(); ++i) {
                const double s = spans.seconds(static_cast<int>(i));
                if (spans.all()[i].name == "apps.plan")
                    res.plan_s += s;
                else if (spans.all()[i].name == "apps.validate")
                    res.validate_s += s;
            }
        }

        res.exec_ticks = r.exec_ticks;
        res.counts = collectCounts(*sys, r);
        if (const auto *serve = dynamic_cast<const apps::ServeApp *>(
                app.get())) {
            res.serving = true;
            for (unsigned n = 0; n < sim.cfg.num_procs; ++n) {
                const auto &log = serve->log(n);
                res.requests.insert(res.requests.end(), log.begin(),
                                    log.end());
            }
        }
        res.digest = digestRun(r, res.counts, res.requests);
        if (counting) {
            const ProtocolCalls &pc = counting->calls();
            res.counts["dsm.slow_path_calls"] =
                static_cast<double>(pc.ensure_access);
            res.counts["dsm.write_hook_calls"] =
                static_cast<double>(pc.shared_write);
            res.counts["dsm.acquire_calls"] = static_cast<double>(pc.acquire);
            res.counts["dsm.release_calls"] = static_cast<double>(pc.release);
            res.counts["dsm.barrier_calls"] = static_cast<double>(pc.barrier);
        }

        span = traced ? spans.begin("dsm.destruct", sim.name) : -1;
        t0 = Clock::now();
        sys.reset();
        res.destruct_s = secondsSince(t0);
        if (traced)
            spans.end(span);
        res.ok = true;
    } catch (const std::exception &e) {
        spans.unwindTo(depth);
        res.ok = false;
        res.error = e.what();
    }
    return res;
}

} // namespace perfbench
