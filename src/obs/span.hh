/**
 * @file
 * Request-level job spans — the serve-layer event record of the
 * observability stack (docs/OBSERVABILITY.md).
 *
 * Where src/trace records what the simulated *machine* did cycle by
 * cycle, a JobSpan records what the *service* did with one request:
 * a sequence of phase edges (submit → admit/reject → batch → dispatch
 * → execute → verify → commit/fail/failover), each stamped with the
 * virtual cycle it happened at, plus the placement facts that explain
 * it — shard id, batch id, compatibility key, failover count and the
 * fault-recovery work (retries, re-plans) its batch absorbed.
 *
 * Virtual-time edges are deterministic: the serve scheduler makes
 * every decision in simulated time, so a span stream is byte-identical
 * across engine modes, shard thread interleavings and reruns (the serve
 * extension of the determinism contract in docs/PERFORMANCE.md).
 * Each edge also carries a wall-clock nanosecond stamp for profiling
 * the simulator itself; wall times are excluded from json() unless
 * asked for, so golden comparisons stay exact.
 *
 * Exports: json() is the versioned record stream tools/serve_report
 * ingests; writeChromeTrace() renders the spans through the existing
 * Chrome-trace sink (src/trace) with one track per shard (batch
 * service slices) and one per tenant (in-flight job depth), so a
 * serve_load run opens directly in chrome://tracing.
 */

#ifndef OPAC_OBS_SPAN_HH
#define OPAC_OBS_SPAN_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace opac::obs
{

/** One step of a request's life inside the service. */
enum class Phase : std::uint8_t
{
    Submit,   //!< entered the server (edge at the virtual arrival)
    Admit,    //!< passed admission into the ready queue
    Reject,   //!< refused at admission (terminal)
    Batch,    //!< selected into a batch (shard and batch id attach)
    Dispatch, //!< its batch was handed to the shard worker
    Execute,  //!< the shard engine started serving the batch
    Verify,   //!< engine done; oracle check of the output ran
    Commit,   //!< result delivered as Completed (terminal)
    Fail,     //!< lost — shard died uncommitted (terminal)
    Failover, //!< re-queued off a dying shard (span continues)
    ShardDead, //!< flight-recorder only: the shard itself died
};

const char *phaseName(Phase p);

/** One phase transition: the phase and when it happened. */
struct SpanEdge
{
    Phase phase;
    Cycle at;          //!< virtual time (deterministic)
    std::uint32_t arg; //!< Batch: batch id; placement phases: shard id
    double wallNs;     //!< host wall clock (informational only)
};

/** The full observable life of one request. */
struct JobSpan
{
    std::uint32_t ticket = 0;
    std::uint32_t tenant = 0;
    std::string kind;           //!< kernel kind name ("gemm", ...)
    std::uint64_t compat = 0;   //!< batching compatibility key
    Cycle deadline = 0;         //!< requested latency bound (0 = none)
    int shard = -1;             //!< last shard it ran on (-1: never)
    unsigned batch = 0;         //!< last batch id (1-based; 0: none)
    unsigned failovers = 0;     //!< times re-queued off a dying shard
    std::uint64_t retries = 0;  //!< host txn retries its batch absorbed
    unsigned replans = 0;       //!< JobRunner re-plans its batch absorbed
    std::string note;           //!< rejection / failure reason
    std::vector<SpanEdge> edges;

    /** Cycle of the first edge with @p p, or noEdge when absent. */
    static constexpr Cycle noEdge = ~Cycle(0);
    Cycle edgeAt(Phase p) const;

    bool terminal() const;      //!< reached commit / fail / reject
};

/**
 * The span collection for one server: one JobSpan per ticket,
 * recorded by the serve scheduler as it makes each decision. All
 * mutation happens on the scheduler thread (submit-side opens are
 * serialized by the server lock), in deterministic order.
 */
class SpanLog
{
  public:
    /** Open (or return) the span for @p ticket. Tickets are 1-based
     *  and dense, so storage is a vector indexed by ticket - 1. */
    JobSpan &open(std::uint32_t ticket);

    /** The span for @p ticket; must have been opened. */
    JobSpan &at(std::uint32_t ticket);
    const JobSpan &at(std::uint32_t ticket) const;

    /** Append a phase edge stamped with the current wall clock. */
    void edge(std::uint32_t ticket, Phase p, Cycle at,
              std::uint32_t arg = 0);

    std::size_t size() const { return spans_.size(); }
    const std::vector<JobSpan> &spans() const { return spans_; }

    /**
     * Versioned span records:
     * {"version": 1, "schema": "opac.serve.spans.v1", "spans": [...]}.
     * Deterministic; @p include_wall adds the wall-clock stamps (off
     * for golden comparisons).
     */
    std::string json(bool include_wall = false) const;

    /**
     * Render the spans as Chrome trace-event JSON through the
     * existing trace sink: one process per shard carrying B/E service
     * slices per batch, one process per tenant carrying a counter
     * track of in-flight jobs plus submit/terminal instants.
     * @p shards sizes the shard track list (tracks appear even for
     * shards that served nothing).
     */
    void writeChromeTrace(std::ostream &out, unsigned shards,
                          Cycle makespan) const;

  private:
    std::vector<JobSpan> spans_;
};

} // namespace opac::obs

#endif // OPAC_OBS_SPAN_HH
