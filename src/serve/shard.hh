/**
 * @file
 * One serving shard: a complete simulated coprocessor (host + P cells
 * + engine) owned by a dedicated worker thread, executing one batch of
 * jobs at a time (docs/SERVING.md).
 *
 * The shard is deliberately dumb: it knows nothing about queues,
 * tenants or virtual time. The scheduler hands it a batch with
 * launch(), the worker thread materializes the inputs, plans every job
 * through the kernel planners, runs the engine to completion and
 * verifies each result against the blasref oracle; harvest() blocks
 * for the BatchOutcome. All placement and ordering decisions stay in
 * the scheduler, which is what keeps the service deterministic while
 * the shards genuinely execute in parallel.
 *
 * A shard survives cell deaths (the host re-plans uncommitted jobs
 * onto the survivors through the JobRunner) and keeps serving with
 * fewer cells. It dies only when recovery itself gives up — every
 * cell dead, or a hang with recovery disabled — in which case the
 * outcome reports which jobs had already committed (their results are
 * valid and verified) and the scheduler fails the rest over.
 */

#ifndef OPAC_SERVE_SHARD_HH
#define OPAC_SERVE_SHARD_HH

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coproc/coprocessor.hh"
#include "serve/request.hh"
#include "stats/stats.hh"

namespace opac::serve
{

/** Configuration of one shard's simulated machine. */
struct ShardConfig
{
    unsigned cells = 4;
    std::size_t tf = 512;          //!< per-cell FIFO capacity
    unsigned tau = 2;              //!< host cycles per bus word
    std::size_t memoryWords = 1 << 20;
    Cycle watchdogCycles = 500000;

    /** Native host floats: serving cares about throughput, not the
     *  paper's 18-digit format study. */
    cell::FpKind fp = cell::FpKind::Native;

    // Protection stack (docs/RESILIENCE.md). Serving defaults to the
    // full stack so injected faults degrade throughput, not answers.
    fault::ParityMode parity = fault::ParityMode::Correct;
    bool recovery = true;
    Cycle recoveryTimeout = 20000;
    unsigned retryBudget = 4;

    // Engine selection (bit-identical across both modes).
    sim::EngineMode engineMode = sim::EngineMode::Skip;
    /** Superop fast tier (byte-identical; forwards to CoprocConfig). */
    bool fastTier = true;

    /** Device-stat sampling period in cycles (0 = off): forwards to
     *  CoprocConfig::statsSampleInterval, so each shard's machine can
     *  record the interval time series the benches use. */
    Cycle statsSampleInterval = 0;

    /** Fault plan for this shard (seed typically derived per shard). */
    fault::FaultSpec faults;
};

/** One job as handed to a shard: the server ticket plus the request. */
struct ShardJob
{
    std::uint32_t ticket = 0;
    JobRequest req;
};

/** Per-job outcome of a batch. */
struct JobOutcome
{
    std::uint32_t ticket = 0;
    bool committed = false; //!< its transaction reached txn_end
    bool correct = false;   //!< output matches the blasref oracle
    std::uint64_t checksum = 0; //!< FNV-1a over the output words
};

/** What one launch()/harvest() round produced. */
struct BatchOutcome
{
    /** False when the machine died mid-batch (shard is finished). */
    bool ran = false;

    /** Engine cycles the batch took. When the machine died this is
     *  the deterministic estimate instead, so virtual time still
     *  advances identically on every run. */
    Cycle cycles = 0;

    std::vector<JobOutcome> jobs;

    unsigned aliveCells = 0;    //!< cells still usable afterwards
    unsigned replans = 0;       //!< JobRunner re-plans this batch
    std::uint64_t retries = 0;  //!< host txn retries (delta)
    std::uint64_t deadCells = 0; //!< cells dead on this shard (total)
    std::uint64_t maOps = 0;    //!< multiply-adds executed (delta)
    std::string note;           //!< death reason when !ran
};

/**
 * Why a request can never run on a shard of this configuration, or ""
 * when it is admissible. Checked once at admission so malformed
 * requests are Rejected instead of wedging a shard.
 */
std::string admissionError(const JobRequest &req,
                           const ShardConfig &cfg);

/** A worker thread owning one simulated coprocessor. */
class Shard
{
  public:
    Shard(unsigned id, const ShardConfig &cfg);
    ~Shard();

    Shard(const Shard &) = delete;
    Shard &operator=(const Shard &) = delete;

    unsigned id() const { return id_; }
    const ShardConfig &config() const { return cfg_; }

    /** False once the machine died; a dead shard never serves again. */
    bool alive() const { return !failed_; }

    /** Usable cells as of the last harvest (placement cost model). */
    unsigned aliveCells() const { return aliveCells_; }

    /** Engine cycles this shard has spent serving batches. */
    std::uint64_t busyCycles() const { return busyCycles_; }

    /** Largest batch (in jobs) this shard has served. */
    std::uint64_t peakBatchJobs() const { return peakBatch_.value(); }

    /**
     * The shard's simulated machine — device-level stats and the
     * interval sampler. Only safe to read between drain() calls (the
     * worker thread mutates it while a batch is in flight).
     */
    const copro::Coprocessor &system() const { return *sys_; }

    /**
     * Hand a batch to the worker thread and return immediately. The
     * shard must be alive and not already running a batch.
     */
    void launch(std::vector<ShardJob> batch);

    /** Block for the outcome of the launched batch. */
    BatchOutcome harvest();

    /**
     * Checkpoint/restore (docs/RESILIENCE.md "Checkpoint & replay").
     *
     * takeSnapshot() captures the complete shard: the simulated
     * machine (via Coprocessor::takeSnapshot) plus a "serve.shard"
     * section with the shard's own batch bookkeeping (job-id base,
     * accounting deltas, liveness). Only valid between launch() and
     * harvest() rounds, when the worker thread is idle.
     *
     * restoreSnapshot() is the inverse, meant for a freshly
     * constructed shard of the same configuration (the machine
     * fingerprint is verified). After a restore the shard continues
     * bit-identically — this is also the shard-migration primitive:
     * snapshot one shard, build a new one, restore into it.
     *
     * writeCheckpoint()/readCheckpoint() are the file-backed forms;
     * writes are atomic (temp file + rename), so a crash mid-write
     * leaves the previous checkpoint intact.
     */
    snap::Snapshot takeSnapshot() const;
    void restoreSnapshot(const snap::Snapshot &s);
    void writeCheckpoint(const std::string &path) const;
    void readCheckpoint(const std::string &path);

  private:
    void worker();
    BatchOutcome execute(const std::vector<ShardJob> &batch);

    const unsigned id_;
    const ShardConfig cfg_;
    std::unique_ptr<copro::Coprocessor> sys_;
    std::size_t baseMark_ = 0;   //!< memory frontier after init
    std::uint32_t nextJobId_ = 1; //!< JobRunner id base (monotonic)
    std::uint64_t lastMa_ = 0;
    std::uint64_t lastRetries_ = 0;

    // Scheduler-thread view, updated only in launch()/harvest().
    bool failed_ = false;
    unsigned aliveCells_;
    std::uint64_t busyCycles_ = 0;
    stats::Watermark peakBatch_;

    // Worker-thread rendezvous.
    std::mutex mu_;
    std::condition_variable cv_;
    bool haveWork_ = false;
    bool haveResult_ = false;
    bool quit_ = false;
    std::vector<ShardJob> inbox_;
    BatchOutcome result_;
    std::thread thread_;
};

} // namespace opac::serve

#endif // OPAC_SERVE_SHARD_HH
