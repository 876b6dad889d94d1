#include "serve/shard.hh"

#include <algorithm>
#include <bit>
#include <complex>
#include <functional>
#include <utility>

#include "blasref/blas3.hh"
#include "blasref/lu.hh"
#include "blasref/signal.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "kernels/kernel_set.hh"
#include "planner/jobs.hh"
#include "planner/linalg_plan.hh"
#include "planner/matref.hh"
#include "planner/signal_plan.hh"

namespace opac::serve
{

using blasref::Matrix;
using planner::MatRef;

namespace
{

/** Fold one memory word into an FNV-1a running hash. */
std::uint64_t
fnvWord(std::uint64_t h, Word w)
{
    h = (h ^ w) * 1099511628211ull;
    return h;
}

constexpr std::uint64_t fnvSeed = 14695981039346656037ull;

std::uint64_t
matChecksum(const host::HostMemory &mem, const MatRef &ref)
{
    std::uint64_t h = fnvSeed;
    for (std::size_t c = 0; c < ref.cols; ++c)
        for (std::size_t r = 0; r < ref.rows; ++r)
            h = fnvWord(h, mem.load(ref.addrOf(r, c)));
    return h;
}

std::uint64_t
rangeChecksum(const host::HostMemory &mem, std::size_t base,
              std::size_t n)
{
    std::uint64_t h = fnvSeed;
    for (std::size_t i = 0; i < n; ++i)
        h = fnvWord(h, mem.load(base + i));
    return h;
}

} // anonymous namespace

std::string
admissionError(const JobRequest &req, const ShardConfig &cfg)
{
    switch (req.kind) {
      case KernelKind::Gemm:
        if (req.m == 0 || req.k == 0 || req.n == 0)
            return "gemm with an empty dimension";
        break;
      case KernelKind::Lu:
        if (req.n < 2)
            return "lu needs n >= 2";
        break;
      case KernelKind::Conv2d:
        if (req.n == 0 || req.m == 0 || req.p == 0 || req.q == 0)
            return "conv2d with an empty dimension";
        if (cfg.tf <= std::size_t(req.p) * req.q + req.q)
            return "conv2d weights too large for the cell FIFO";
        break;
      case KernelKind::Fft:
        if (req.n < 4 || (req.n & (req.n - 1)) != 0)
            return "fft size must be a power of two >= 4";
        if (req.n > 2 * cfg.tf / 3)
            return "fft size exceeds 2*Tf/3 for this shard";
        if (req.batch == 0)
            return "fft with an empty batch";
        break;
    }
    return "";
}

Shard::Shard(unsigned id, const ShardConfig &cfg)
    : id_(id), cfg_(cfg), aliveCells_(cfg.cells)
{
    copro::CoprocConfig cc;
    cc.cells = cfg.cells;
    cc.cell.tf = cfg.tf;
    cc.cell.interfaceDepth = std::max<std::size_t>(cfg.tf, 2048);
    cc.cell.fp = cfg.fp;
    cc.cell.parity = cfg.parity;
    cc.host.tau = cfg.tau;
    cc.host.recovery.enabled = cfg.recovery;
    cc.host.recovery.timeoutCycles = cfg.recoveryTimeout;
    cc.host.recovery.retryBudget = cfg.retryBudget;
    cc.memoryWords = cfg.memoryWords;
    cc.watchdogCycles = cfg.watchdogCycles;
    cc.engineMode = cfg.engineMode;
    cc.fastTier = cfg.fastTier;
    cc.statsSampleInterval = cfg.statsSampleInterval;
    cc.faults = cfg.faults;
    sys_ = std::make_unique<copro::Coprocessor>(cc);
    kernels::installStandardKernels(*sys_);
    baseMark_ = sys_->memory().mark();
    thread_ = std::thread([this] { worker(); });
}

Shard::~Shard()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

void
Shard::launch(std::vector<ShardJob> batch)
{
    opac_assert(!failed_, "launch on a dead shard %u", id_);
    opac_assert(!batch.empty(), "launch with an empty batch");
    peakBatch_.observe(batch.size());
    {
        std::lock_guard<std::mutex> lk(mu_);
        opac_assert(!haveWork_ && !haveResult_,
                    "shard %u is already running a batch", id_);
        inbox_ = std::move(batch);
        haveWork_ = true;
    }
    cv_.notify_all();
}

BatchOutcome
Shard::harvest()
{
    BatchOutcome res;
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return haveResult_; });
        res = std::move(result_);
        haveResult_ = false;
    }
    if (!res.ran)
        failed_ = true;
    aliveCells_ = res.aliveCells;
    busyCycles_ += res.cycles;
    return res;
}

void
Shard::worker()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] { return quit_ || haveWork_; });
        if (quit_)
            return;
        std::vector<ShardJob> batch = std::move(inbox_);
        inbox_.clear();
        haveWork_ = false;
        lk.unlock();
        BatchOutcome out = execute(batch);
        lk.lock();
        result_ = std::move(out);
        haveResult_ = true;
        cv_.notify_all();
    }
}

snap::Snapshot
Shard::takeSnapshot() const
{
    snap::Snapshot s = sys_->takeSnapshot();
    snap::Writer w;
    w.u64(baseMark_);
    w.u32(nextJobId_);
    w.u64(lastMa_);
    w.u64(lastRetries_);
    w.b(failed_);
    w.u32(aliveCells_);
    w.u64(busyCycles_);
    peakBatch_.saveState(w);
    s.add("serve.shard", 1, w.take());
    return s;
}

void
Shard::restoreSnapshot(const snap::Snapshot &s)
{
    // The machine restore is strict about its section inventory, so
    // peel the shard's own section off into a core-only copy first.
    snap::Snapshot core;
    core.cycle = s.cycle;
    core.fingerprint = s.fingerprint;
    for (const snap::Section &sec : s.sections())
        if (sec.name != "serve.shard")
            core.add(sec.name, sec.version, sec.payload);
    sys_->restoreSnapshot(core);

    const snap::Section &sec = s.require("serve.shard");
    snap::Reader r(sec.payload, "section 'serve.shard'");
    std::uint64_t mark = r.u64();
    if (mark != baseMark_)
        r.fail("base memory mark differs (different kernel set?)");
    nextJobId_ = r.u32();
    lastMa_ = r.u64();
    lastRetries_ = r.u64();
    failed_ = r.b();
    aliveCells_ = r.u32();
    busyCycles_ = r.u64();
    peakBatch_.loadState(r);
    r.expectEnd();

    // Belt and braces: if the checkpoint predates deliveries that are
    // already journaled (crash between a delivery and the next
    // checkpoint), the restored job-id base could collide with ids the
    // host has already committed. Keep it strictly ahead.
    for (std::uint32_t j : sys_->host().completedJobs())
        nextJobId_ = std::max(nextJobId_, j + 1);
}

void
Shard::writeCheckpoint(const std::string &path) const
{
    takeSnapshot().writeFile(path);
}

void
Shard::readCheckpoint(const std::string &path)
{
    restoreSnapshot(snap::Snapshot::readFile(path));
}

BatchOutcome
Shard::execute(const std::vector<ShardJob> &batch)
{
    BatchOutcome out;
    out.jobs.resize(batch.size());
    host::HostMemory &mem = sys_->memory();
    host::Host &h = sys_->host();

    // Recycle the arena: everything a previous batch allocated —
    // including planner scratch — is released and zeroed.
    mem.rewind(baseMark_);

    // A verification closure per job, run after the engine finishes:
    // (matches the oracle?, FNV-1a checksum of the output words).
    std::vector<std::function<std::pair<bool, std::uint64_t>()>> checks;
    checks.reserve(batch.size());

    planner::JobRunner runner(*sys_, nextJobId_);
    const std::uint32_t base = nextJobId_;
    nextJobId_ += std::uint32_t(batch.size());
    Cycle estimate = 0;

    for (const ShardJob &sj : batch) {
        const JobRequest &req = sj.req;
        estimate += estimatedServiceCycles(req, cfg_.cells);
        Rng rng(req.seed);
        switch (req.kind) {
          case KernelKind::Gemm: {
            Matrix a(req.m, req.k), b(req.k, req.n), c(req.m, req.n);
            a.randomize(rng);
            b.randomize(rng);
            c.randomize(rng);
            Matrix want = c;
            blasref::gemm(want, a, b);
            MatRef ar = planner::allocMat(mem, req.m, req.k);
            MatRef br = planner::allocMat(mem, req.k, req.n);
            MatRef cr = planner::allocMat(mem, req.m, req.n);
            planner::storeMat(mem, ar, a);
            planner::storeMat(mem, br, b);
            planner::storeMat(mem, cr, c);
            runner.add("gemm", [this, cr, ar, br](std::uint32_t alive) {
                planner::LinalgPlanner plan(*sys_, alive);
                plan.matUpdate(cr, ar, br);
                return plan.takeOps();
            });
            checks.push_back([this, cr, want] {
                bool ok = planner::loadMat(sys_->memory(), cr)
                              .maxAbsDiff(want)
                          < 1e-3f;
                return std::make_pair(
                    ok, matChecksum(sys_->memory(), cr));
            });
            break;
          }
          case KernelKind::Lu: {
            Matrix a(req.n, req.n);
            a.randomize(rng);
            a.makeDiagonallyDominant();
            Matrix want = a;
            blasref::luFactor(want);
            MatRef ar = planner::allocMat(mem, req.n, req.n);
            planner::storeMat(mem, ar, a);
            runner.add("lu", [this, ar](std::uint32_t alive) {
                planner::LinalgPlanner plan(*sys_, alive);
                plan.lu(ar);
                return plan.takeOps();
            });
            checks.push_back([this, ar, want] {
                bool ok = planner::loadMat(sys_->memory(), ar)
                              .maxAbsDiff(want)
                          < 2e-3f;
                return std::make_pair(
                    ok, matChecksum(sys_->memory(), ar));
            });
            break;
          }
          case KernelKind::Conv2d: {
            Matrix img(req.n, req.m);
            img.randomize(rng);
            Matrix w(req.p, req.q);
            w.randomize(rng);
            Matrix want = blasref::xcorr2d(img, w);
            // Padded transposed image: column r holds padded input
            // row r (the conv2d planner's required layout).
            MatRef img_t =
                planner::allocMat(mem, req.m + req.q - 1, req.n + req.p);
            for (std::size_t r = 0; r < img_t.cols; ++r)
                for (std::size_t c = 0; c < img_t.rows; ++c) {
                    float v = 0.0f;
                    if (r < img.rows() && c < img.cols())
                        v = img.at(r, c);
                    mem.storeF(img_t.addrOf(c, r), v);
                }
            MatRef wr = planner::allocMat(mem, req.p, req.q);
            planner::storeMat(mem, wr, w);
            MatRef out_t = planner::allocMat(mem, req.m, req.n);
            runner.add("conv2d", [this, img_t, wr, out_t, nr = req.n,
                                  mc = req.m](std::uint32_t alive) {
                planner::SignalPlanner plan(*sys_, alive);
                plan.conv2d(img_t, wr, out_t, nr, mc);
                return plan.takeOps();
            });
            checks.push_back([this, out_t, want] {
                const host::HostMemory &m = sys_->memory();
                bool ok = true;
                for (std::size_t r = 0; ok && r < want.rows(); ++r)
                    for (std::size_t c = 0; c < want.cols(); ++c)
                        if (std::abs(m.loadF(out_t.addrOf(c, r))
                                     - want.at(r, c))
                            >= 1e-3f) {
                            ok = false;
                            break;
                        }
                return std::make_pair(ok, matChecksum(m, out_t));
            });
            break;
          }
          case KernelKind::Fft: {
            std::vector<std::vector<std::complex<float>>> xs(req.batch);
            for (auto &x : xs) {
                x.resize(req.n);
                for (auto &v : x)
                    v = {rng.element(), rng.element()};
            }
            std::vector<std::vector<std::complex<float>>> want;
            want.reserve(req.batch);
            for (const auto &x : xs)
                want.push_back(blasref::fft(x));
            std::size_t in = mem.alloc(2 * req.n * req.batch);
            std::size_t ob = mem.alloc(2 * req.n * req.batch);
            for (std::size_t b = 0; b < req.batch; ++b)
                for (std::size_t i = 0; i < req.n; ++i) {
                    mem.storeF(in + b * 2 * req.n + 2 * i,
                               xs[b][i].real());
                    mem.storeF(in + b * 2 * req.n + 2 * i + 1,
                               xs[b][i].imag());
                }
            runner.add("fft", [this, in, ob, n = req.n,
                               nb = req.batch](std::uint32_t alive) {
                planner::SignalPlanner plan(*sys_, alive);
                plan.fft(in, ob, n, nb);
                return plan.takeOps();
            });
            checks.push_back([this, ob, n = req.n, want] {
                const host::HostMemory &m = sys_->memory();
                const float tol = 2e-3f * float(n > 64 ? n / 64 : 1);
                bool ok = true;
                for (std::size_t b = 0; ok && b < want.size(); ++b)
                    for (std::size_t k = 0; k < n; ++k) {
                        std::size_t at = ob + b * 2 * n + 2 * k;
                        if (std::abs(m.loadF(at) - want[b][k].real())
                                >= tol
                            || std::abs(m.loadF(at + 1)
                                        - want[b][k].imag())
                                   >= tol) {
                            ok = false;
                            break;
                        }
                    }
                return std::make_pair(
                    ok,
                    rangeChecksum(m, ob, 2 * n * want.size()));
            });
            break;
          }
        }
    }

    runner.dispatch();
    try {
        out.cycles = sys_->run();
        out.ran = true;
    } catch (const std::exception &e) {
        // The machine died (every cell dead, or a hang recovery could
        // not absorb). Jobs that committed before the death still hold
        // valid results; virtual time advances by the deterministic
        // estimate so replays stay identical.
        out.cycles = estimate;
        out.note = e.what();
    }

    out.replans = runner.replans();
    out.aliveCells = unsigned(std::popcount(h.aliveMask()));
    out.deadCells = h.deadCells();
    out.retries = h.retries() - lastRetries_;
    lastRetries_ = h.retries();
    std::uint64_t ma = 0;
    for (unsigned i = 0; i < sys_->numCells(); ++i)
        ma += sys_->cell(i).fmaOps();
    out.maOps = ma - lastMa_;
    lastMa_ = ma;

    const auto &done = h.completedJobs();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        JobOutcome &jo = out.jobs[i];
        jo.ticket = batch[i].ticket;
        // Without recovery there are no transactions to track: a
        // completed run commits everything, a death commits nothing.
        jo.committed =
            cfg_.recovery
                ? std::find(done.begin(), done.end(),
                            base + std::uint32_t(i))
                      != done.end()
                : out.ran;
        if (jo.committed) {
            auto [ok, sum] = checks[i]();
            jo.correct = ok;
            jo.checksum = sum;
        }
    }
    return out;
}

} // namespace opac::serve
