/**
 * @file
 * Outside-in probes for the benchmark runner: everything here wraps or
 * reads the simulator's public surface (dsm::System, dsm::RunResult,
 * dsm::Protocol, dsm::Workload) and never reaches into a layer.
 *
 *  - Digest: a 64-bit FNV-1a hash of every simulated statistic of a
 *    run, so two runs of one configuration can be compared exactly.
 *  - Spans: in-memory host-time spans (name, start, end, parent),
 *    written out as JSON when the benchmark ends.
 *  - CountingProtocol: a forwarding decorator that counts calls per
 *    Protocol entry point. Those calls can yield the fiber inside
 *    Cpu::advance, so only their counts are meaningful, never their
 *    inclusive host time.
 *  - SpanWorkload: a forwarding Workload that gives plan() and
 *    validate() their own spans.
 *  - Sim / runSim: one simulation from a SysConfig built out of model
 *    fields only, timed around construction, run() and destruction.
 */

#ifndef NCP2_PERFBENCH_PROBE_HH
#define NCP2_PERFBENCH_PROBE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/serve/serve.hh"
#include "dsm/protocol.hh"
#include "dsm/system.hh"
#include "dsm/workload.hh"

namespace perfbench
{

/** @p s as a JSON string literal (control characters become spaces). */
std::string quoted(const std::string &s);

/** 64-bit FNV-1a over a stream of simulated values. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const std::string &s);
    void add(const sim::StatSnapshot &s);
    void add(const dsm::RunResult &r);

    std::uint64_t value() const { return h_; }

  private:
    void bytes(const void *p, std::size_t n);

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * The digest of one run: every simulated statistic in @p r, the counts
 * collectCounts() read from the System, and every logged request.
 */
std::uint64_t
digestRun(const dsm::RunResult &r, const std::map<std::string, double> &counts,
          const std::vector<apps::ServeApp::ReqLog> &requests);

/** Host-time spans kept in memory and written out at the end. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::string sim;  ///< the simulation the span belongs to
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        int parent = -1;  ///< index of the enclosing span, -1 for none
    };

    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string &name, const std::string &sim);
    /** Close span @p idx (must be the innermost open one). */
    void end(int idx);
    /** Number of open spans. */
    std::size_t depth() const { return open_.size(); }
    /** Close open spans until @p depth remain (after a throw). */
    void unwindTo(std::size_t depth);
    /** Duration of span @p idx in seconds. */
    double seconds(int idx) const;

    const std::vector<Span> &all() const { return spans_; }
    /** Write every span as a JSON array to @p path. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Calls per dsm::Protocol entry point. */
struct ProtocolCalls
{
    std::uint64_t ensure_access = 0;
    std::uint64_t shared_write = 0;
    std::uint64_t acquire = 0;
    std::uint64_t release = 0;
    std::uint64_t barrier = 0;
};

/** Forwards every Protocol entry point, counting the calls. */
class CountingProtocol final : public dsm::Protocol
{
  public:
    explicit CountingProtocol(std::unique_ptr<dsm::Protocol> inner)
        : inner_(std::move(inner))
    {
    }

    void attach(dsm::System &sys) override { inner_->attach(sys); }
    void
    ensureAccess(sim::NodeId proc, sim::PageId page, bool for_write) override
    {
        ++calls_.ensure_access;
        inner_->ensureAccess(proc, page, for_write);
    }
    void
    sharedWrite(sim::NodeId proc, sim::PageId page, unsigned word,
                unsigned words) override
    {
        ++calls_.shared_write;
        inner_->sharedWrite(proc, page, word, words);
    }
    void
    acquire(sim::NodeId proc, unsigned lock_id) override
    {
        ++calls_.acquire;
        inner_->acquire(proc, lock_id);
    }
    void
    release(sim::NodeId proc, unsigned lock_id) override
    {
        ++calls_.release;
        inner_->release(proc, lock_id);
    }
    void
    barrier(sim::NodeId proc, unsigned barrier_id) override
    {
        ++calls_.barrier;
        inner_->barrier(proc, barrier_id);
    }
    dsm::WriteDescInfo
    writeDesc(sim::NodeId proc, sim::PageId page) override
    {
        return inner_->writeDesc(proc, page);
    }
    std::string name() const override { return inner_->name(); }
    bool pdesSafe() const override { return inner_->pdesSafe(); }
    const sim::StatGroup *
    statGroup() const override
    {
        return inner_->statGroup();
    }
    void
    readCoherent(sim::PageId page, std::uint8_t *out) override
    {
        inner_->readCoherent(page, out);
    }
    void finalize() override { inner_->finalize(); }

    const ProtocolCalls &calls() const { return calls_; }

  private:
    std::unique_ptr<dsm::Protocol> inner_;
    ProtocolCalls calls_;
};

/** Forwards a Workload, giving plan() and validate() their own spans. */
class SpanWorkload final : public dsm::Workload
{
  public:
    SpanWorkload(dsm::Workload &inner, Spans &spans, std::string sim)
        : inner_(inner), spans_(spans), sim_(std::move(sim))
    {
    }

    std::string name() const override { return inner_.name(); }
    void
    plan(dsm::GlobalHeap &heap, const dsm::SysConfig &cfg) override
    {
        const int s = spans_.begin("apps.plan", sim_);
        inner_.plan(heap, cfg);
        spans_.end(s);
    }
    void run(dsm::Proc &p) override { inner_.run(p); }
    void
    validate(dsm::System &sys) override
    {
        const int s = spans_.begin("apps.validate", sim_);
        inner_.validate(sys);
        spans_.end(s);
    }
    const sim::StatGroup *
    statGroup() const override
    {
        return inner_.statGroup();
    }
    bool pdesSafe() const override { return inner_.pdesSafe(); }

  private:
    dsm::Workload &inner_;
    Spans &spans_;
    std::string sim_;
};

/** One simulation of a workload set. */
struct Sim
{
    std::string name;     ///< "TSP/Base", "Water/p=1024", "Serve/I+P+D"
    std::string variant;  ///< "Base", "IPD" or "AURC"
    dsm::SysConfig cfg;
    std::function<std::unique_ptr<dsm::Workload>()> make;
    /// Counted in the reported simulated metrics. A held-out run
    /// (false) is still timed, validated, digested and guarded.
    bool reference = true;
};

/**
 * A SysConfig from model fields only (num_procs, heap_bytes, protocol,
 * mode, barrier_radix, mesh_cluster); every other field keeps its
 * default, so no host-side switch or environment knob reaches a run.
 */
dsm::SysConfig modelConfig(unsigned procs, const std::string &variant,
                           unsigned barrier_radix = 0,
                           unsigned mesh_cluster = 0);

/** Exact request statistics of a ServeApp run, from its logs. */
struct ServeStats
{
    std::uint64_t requests = 0;
    std::uint64_t reads = 0, writes = 0;
    std::uint64_t read_p50 = 0, read_p999 = 0; ///< arrival to completion
    std::uint64_t write_p50 = 0, write_p99 = 0;
    std::uint64_t read_beyond_p999 = 0;  ///< samples above the p999 rank
    std::uint64_t write_beyond_p99 = 0;
    std::uint64_t queue_p99 = 0, service_p99 = 0;
    /// Mean queueing delay of the earliest and latest quarter of all
    /// requests by scheduled arrival (the backlog guard's inputs).
    double early_queue_mean = 0, late_queue_mean = 0;
    double service_mean = 0;
};

ServeStats serveStats(const std::vector<apps::ServeApp::ReqLog> &requests);

/** What one simulation measured. */
struct SimResult
{
    std::string name;
    std::string variant;
    bool ok = false;
    std::string error;
    std::uint64_t digest = 0;
    std::uint64_t exec_ticks = 0;
    double construct_s = 0, run_s = 0, plan_s = 0, validate_s = 0,
           destruct_s = 0;
    /// Simulated counts from RunResult and node components (and, when
    /// traced, the Protocol entry-point call counts).
    std::map<std::string, double> counts;
    bool serving = false;
    /// Every request a ServeApp run logged, all nodes in node order.
    std::vector<apps::ServeApp::ReqLog> requests;
};

/**
 * Build, run, read out and destroy one System for @p sim. Untraced runs
 * time the phases with plain clock reads; traced runs wrap the protocol
 * and workload and record spans into @p spans. Never throws: a failed
 * simulation comes back with ok == false and the exception text.
 */
SimResult runSim(const Sim &sim, bool traced, Spans &spans);

/** Counts read from a finished System and its RunResult. */
std::map<std::string, double> collectCounts(dsm::System &sys,
                                            const dsm::RunResult &r);

} // namespace perfbench

#endif // NCP2_PERFBENCH_PROBE_HH
