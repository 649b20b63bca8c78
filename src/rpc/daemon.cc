#include "rpc/daemon.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "gpufs/victim.hh"

namespace gpufs {
namespace rpc {

CpuDaemon::CpuDaemon(hostfs::HostFs &host_fs,
                     consistency::ConsistencyMgr &mgr)
    : fs(host_fs), consistency(mgr), stats_("cpu_daemon"),
      requestsServed(stats_.counter("requests_served")),
      bytesToGpu(stats_.counter("bytes_to_gpu")),
      bytesFromGpu(stats_.counter("bytes_from_gpu")),
      bytesPeer(stats_.counter("bytes_peer_to_peer")),
      peerReadRpcs(stats_.counter("peer_read_rpcs")),
      peerPagesForwarded(stats_.counter("peer_pages_forwarded")),
      peerPagesHost(stats_.counter("peer_pages_host_fallback")),
      peerWriteRpcs(stats_.counter("peer_write_rpcs")),
      peerExtentsMirrored(stats_.counter("peer_extents_mirrored")),
      raPagesFetched(stats_.counter("ra_pages_fetched")),
      coalescedRpcs(stats_.counter("coalesced_rpcs")),
      hostReadCalls(stats_.counter("host_read_calls")),
      ioRetries(stats_.counter("io_retries")),
      ioRetryGiveups(stats_.counter("io_retry_giveups")),
      journalCommits(stats_.counter("journal_commits")),
      journalCommitBarriers(stats_.counter("journal_commit_barriers")),
      journalTxnsReplayed(stats_.counter("journal_txns_replayed")),
      journalTornRecords(stats_.counter("journal_torn_records")),
      journalCheckpoints(stats_.counter("journal_checkpoints")),
      journalGroupSyncs(stats_.counter("journal_group_syncs")),
      peerPagesAdopted(stats_.counter("peer_pages_adopted"))
{
    for (unsigned t = 0; t < core::kMaxTenants; ++t) {
        tenantRpcs[t] =
            &stats_.counter("tenant" + std::to_string(t) + "_rpcs");
    }
    backend_ = storage::makeStorageBackend(storage::BackendKind::Buffered,
                                           fs, stats_);
}

void
CpuDaemon::setTenantWeights(const unsigned *weights, unsigned n)
{
    gpufs_assert(!running.load(), "setTenantWeights after start");
    drr_ = false;
    for (unsigned t = 0; t < core::kMaxTenants; ++t) {
        tenantWeight_[t] = t < n ? weights[t] : 0;
        if (tenantWeight_[t] != 0)
            drr_ = true;
    }
}

void
CpuDaemon::setStorageBackend(storage::BackendKind kind)
{
    gpufs_assert(!running.load(), "setStorageBackend after start");
    backend_ = storage::makeStorageBackend(kind, fs, stats_);
}

void
CpuDaemon::setVictimCache(core::VictimCache *v)
{
    gpufs_assert(!running.load(), "setVictimCache after start");
    victim_ = v;
}

namespace {

/** Bounded retry with exponential backoff for transient host-I/O
 *  faults (injected EIO, short writes): re-issue with the virtual
 *  clock pushed back 40/80/160us before giving up and letting the
 *  error IoResult complete the RPC. Never retries once the host has
 *  crashed — a dead backing store is not transient. */
constexpr unsigned kMaxIoRetries = 3;
constexpr Time kIoRetryBackoff = 20000;  // 20us, doubling per attempt

template <typename Fn>
hostfs::IoResult
retryTransient(hostfs::HostFs &fs, Counter &retries, Counter &giveups,
               Fn &&fn)
{
    hostfs::IoResult r = fn(Time(0));
    for (unsigned attempt = 1; r.status == Status::IoError &&
         attempt <= kMaxIoRetries && !fs.crashed(); ++attempt) {
        retries.inc();
        r = fn(kIoRetryBackoff << attempt);
    }
    if (r.status == Status::IoError)
        giveups.inc();
    return r;
}

/** Batched requests carry 1..kMaxBatchPages pages; peer ops also need
 *  a page size (the owner's page index derives from it). */
bool
batchOk(const RpcRequest &req)
{
    switch (req.op) {
      case RpcOp::ReadPage:
      case RpcOp::WriteBack:
        return true;
      case RpcOp::PeerReadPages:
      case RpcOp::PeerWritePages:
        if (req.pageLen == 0)
            return false;
        [[fallthrough]];
      default:
        return req.pageCount > 0 && req.pageCount <= kMaxBatchPages;
    }
}

bool
isRead(RpcOp op)
{
    return op == RpcOp::ReadPage || op == RpcOp::ReadPages ||
           op == RpcOp::PeerReadPages;
}

bool
isWrite(RpcOp op)
{
    return op == RpcOp::WriteBack || op == RpcOp::WritePages ||
           op == RpcOp::PeerWritePages;
}

/** A write request's extents: WriteBack is a one-extent batch. */
unsigned
extentsOf(const RpcRequest &req, hostfs::WriteRun *out)
{
    if (req.op == RpcOp::WriteBack) {
        out[0] = {req.offset, req.len, req.data};
        return 1;
    }
    for (unsigned i = 0; i < req.pageCount; ++i)
        out[i] = {req.batchOff[i], req.batchLen[i], req.batch[i]};
    return req.pageCount;
}

/**
 * O_GWRONCE: the pristine copy is implicitly all zeros, so the
 * locally-modified bytes are exactly the non-zero ones. Append maximal
 * non-zero runs of [data, data+len) (landing at file offset @p off) so
 * concurrent writers to other regions of the same page are not
 * reverted (§3.1).
 */
void
appendZeroDiffRuns(std::vector<hostfs::WriteRun> &runs, uint64_t off,
                   const uint8_t *data, uint64_t len)
{
    uint64_t i = 0;
    while (i < len) {
        while (i < len && data[i] == 0)
            ++i;
        uint64_t run = i;
        while (run < len && data[run] != 0)
            ++run;
        if (run > i)
            runs.push_back({off + i, run - i, data + i});
        i = run;
    }
}

/**
 * The runs a write request lands as ONE gathered pwritev (one syscall
 * charge, one version bump): its non-empty extents, each split into
 * its non-zero runs under diffAgainstZeros. Empty for anything that
 * is not a valid write request. The write pipeline and the sweep's
 * journal preflight both build runs here, so they journal the same
 * bytes.
 */
std::vector<hostfs::WriteRun>
writeRunsOf(const RpcRequest &req)
{
    std::vector<hostfs::WriteRun> runs;
    if (!isWrite(req.op) || !batchOk(req))
        return runs;
    hostfs::WriteRun ext[kMaxBatchPages];
    const unsigned n = extentsOf(req, ext);
    runs.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        if (ext[i].len == 0)
            continue;
        if (req.diffAgainstZeros)
            appendZeroDiffRuns(runs, ext[i].offset, ext[i].data, ext[i].len);
        else
            runs.push_back(ext[i]);
    }
    return runs;
}

} // namespace

void
CpuDaemon::enableJournal()
{
    gpufs_assert(!running.load(), "enableJournal after start");
    if (!journal_)
        journal_ = std::make_unique<hostfs::WriteJournal>(fs);
}

bool
CpuDaemon::durableFd(int fd, uint64_t *ino_out)
{
    std::lock_guard<std::mutex> lock(claimMtx);
    auto it = fdClaims.find(fd);
    if (it == fdClaims.end())
        return false;
    if (ino_out)
        *ino_out = it->second.ino;
    return it->second.durable;
}

Status
CpuDaemon::maybeJournal(int fd, const hostfs::WriteRun *runs, unsigned n,
                        Time &t, sim::Resource *io, bool *journaled)
{
    if (!journal_)
        return Status::Ok;
    uint64_t ino = 0;
    if (!durableFd(fd, &ino))
        return Status::Ok;
    if (slotPrejournaled_) {
        // Group commit fast path: the sweep preflight already appended
        // this txn and made it durable with the sweep's ONE groupSync,
        // so the WAL rule (commit durable before the in-place write)
        // holds without a per-RPC fsync here.
        slotPrejournaled_ = false;
        t = std::max(t, slotPrejournalTime_);
    } else {
        // Fallback (preflight append failed or was skipped): per-RPC
        // append + fsync. The sync cannot be deferred to the sweep's
        // end — a crash reverts un-fsynced journal records, so an
        // in-place write issued before the sync would be
        // unrecoverable if torn.
        hostfs::IoResult j = journalAppend(ino, runs, n, t, io);
        if (!ok(j.status))
            return j.status;
        hostfs::IoResult s = journalSync(j.done);
        if (!ok(s.status))
            return s.status;
        t = s.done;
    }
    journalCommits.inc();
    journalUnapplied_.fetch_add(1, std::memory_order_relaxed);
    if (journaled)
        *journaled = true;
    // Crash point "commit durable, in-place write never ran": exactly
    // the window recovery's replay exists for.
    if (fs.maybeCrash(sim::CrashPoint::AfterJournalCommit))
        return Status::IoError;
    return Status::Ok;
}

hostfs::IoResult
CpuDaemon::journalAppend(uint64_t ino, const hostfs::WriteRun *runs,
                         unsigned n, Time at, sim::Resource *io)
{
    return retryTransient(fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
        return journal_->append(ino, runs, n, at + backoff, io);
    });
}

hostfs::IoResult
CpuDaemon::journalSync(Time at)
{
    hostfs::IoResult s = retryTransient(
        fs, ioRetries, ioRetryGiveups,
        [&](Time backoff) { return journal_->groupSync(at + backoff); });
    if (ok(s.status))
        journalGroupSyncs.inc();
    return s;
}

Status
CpuDaemon::flushJournalSync()
{
    // Never after a crash: the appended records then belong to
    // recovery's replay, and fsyncing a dead store is not transient.
    if (!journal_ || !journal_->syncPending() || fs.crashed())
        return Status::Ok;
    return journalSync(0).status;
}

void
CpuDaemon::prejournalSweep(unsigned port_idx, RpcSlot **all,
                           unsigned total)
{
    if (!journal_ || fs.crashed())
        return;
    auto &sim = ports[port_idx]->dev->simContext();
    bool appended = false;
    for (unsigned s = 0; s < total; ++s) {
        const RpcRequest &req = all[s]->req;
        // Exactly the runs the write pipeline will journal — the
        // staging bytes are already host-visible when the slot is
        // claimed; only the D2H DMA's virtual-time charge happens
        // later in the pipeline.
        std::vector<hostfs::WriteRun> runs = writeRunsOf(req);
        uint64_t ino = 0;
        if (runs.empty() || !durableFd(req.hostFd, &ino))
            continue;
        hostfs::IoResult j =
            journalAppend(ino, runs.data(), static_cast<unsigned>(runs.size()),
                          req.issueTime, &sim.cpuIo);
        if (!ok(j.status))
            continue; // the pipeline's maybeJournal falls back per-RPC
        prejournalDone_[all[s]] = j.done;
        appended = true;
    }
    if (!appended)
        return;
    hostfs::IoResult gs = journalSync(0);
    if (!ok(gs.status) || fs.crashed()) {
        // The group fsync failed (or a crash fired mid-preflight): the
        // appends are NOT durable, so the pipeline must not treat them
        // as committed — drop the records and let maybeJournal's
        // per-RPC fallback re-establish the WAL ordering (or surface
        // the error).
        prejournalDone_.clear();
        return;
    }
    // Propagate the sync-durable time into every preflighted slot so
    // resp.done never claims completion before its commit was durable.
    for (auto &e : prejournalDone_)
        e.second = std::max(e.second, gs.done);
}

CpuDaemon::~CpuDaemon()
{
    stop();
}

RpcQueue &
CpuDaemon::attachGpu(gpu::GpuDevice &dev)
{
    gpufs_assert(!running.load(), "attachGpu after start");
    auto port = std::make_unique<GpuPort>();
    port->dev = &dev;
    port->queue = std::make_unique<RpcQueue>(doorbell);
    ports.push_back(std::move(port));
    return *ports.back()->queue;
}

void
CpuDaemon::setPeerSource(unsigned gpu_id, PeerPageSource *src)
{
    if (gpu_id < ports.size())
        ports[gpu_id]->peerSource.store(src, std::memory_order_release);
}

void
CpuDaemon::start()
{
    gpufs_assert(!running.load(), "daemon already running");
    if (journal_) {
        // Crash recovery: replay committed-but-possibly-unapplied
        // write-back txns, discard the torn tail, truncate the journal.
        hostfs::RecoveryStats rs = journal_->recover(0);
        journalTxnsReplayed.inc(rs.txnsReplayed);
        journalTornRecords.inc(rs.tornRecords);
    }
    running.store(true);
    worker = std::thread([this] { loop(); });
}

void
CpuDaemon::stop()
{
    if (!running.exchange(false))
        return;
    doorbell.fetch_add(1);
    doorbell.notify_one();
    if (worker.joinable())
        worker.join();
    // Clean-shutdown checkpoint: every committed txn has been applied
    // in place, so the journal's history is dead weight — flush the
    // covered files and truncate it so the next start() skips replay.
    // Never after a crash (recovery needs the records) and never with
    // a committed-but-unapplied txn outstanding (truncating it would
    // lose the bytes replay exists to restore).
    if (journal_ && !fs.crashed() &&
        journalUnapplied_.load(std::memory_order_acquire) == 0 &&
        journal_->tailOffset() > 0) {
        journal_->checkpoint(0);
        journalCheckpoints.inc();
    }
    // Publish each queue's slot-pressure high-water marks into the
    // StatSet so post-run reports see them next to the service counts.
    for (unsigned i = 0; i < ports.size(); ++i) {
        const std::string prefix = "gpu" + std::to_string(i);
        uint64_t stalls = ports[i]->queue->fullQueueStalls();
        uint64_t subs = ports[i]->queue->submissions();
        stats_.counter(prefix + "_max_inflight_slots")
            .maxWith(ports[i]->queue->maxInFlightSlots());
        stats_.counter(prefix + "_full_queue_stalls").maxWith(stalls);
        stats_.counter(prefix + "_submissions").maxWith(subs);
        stats_.counter(prefix + "_doorbell_rings_suppressed")
            .maxWith(ports[i]->queue->doorbellRingsSuppressed());
        // Doorbell-coalescing decision signal (ROADMAP "RPC slot
        // scaling"): submitters stalling on a full slot array more
        // than ~1% of the time means kQueueSlots, not the daemon, is
        // the bottleneck. Judge THIS report interval's delta — the
        // queue counters are cumulative across start/stop cycles, and
        // re-judging history would re-warn forever on one bad early
        // interval — and warn only on the rising edge of a crossing.
        uint64_t d_stalls = stalls - ports[i]->lastStalls;
        uint64_t d_subs = subs - ports[i]->lastSubs;
        ports[i]->lastStalls = stalls;
        ports[i]->lastSubs = subs;
        bool stalled = d_stalls > 0 && d_stalls * 100 > d_subs;
        if (stalled && !ports[i]->stallWarned) {
            gpufs_warn("gpu%u RPC queue: %llu full-queue stalls over "
                       "%llu submissions this interval (>1%%) — "
                       "consider more slots",
                       i, static_cast<unsigned long long>(d_stalls),
                       static_cast<unsigned long long>(d_subs));
        }
        ports[i]->stallWarned = stalled;
    }
}

void
CpuDaemon::loop()
{
    uint64_t seen = doorbell.load(std::memory_order_acquire);
    while (running.load(std::memory_order_acquire)) {
        bool any = false;
        // Event loop: sweep every GPU's queue, claim everything that
        // is ready, and service the sweep's claims in issue-time order
        // — with split-phase submission one block may have several
        // slots outstanding, and servicing them in slot-array order
        // would reserve the serialized CPU timeline acausally. Each
        // slot still completes individually the moment it is serviced
        // (out-of-order delivery relative to submission).
        for (unsigned i = 0; i < ports.size(); ++i) {
            RpcSlot *batch[kQueueSlots];
            unsigned n;
            while ((n = ports[i]->queue->pollAll(batch, kQueueSlots))
                   > 0) {
                serviceSweep(i, batch, n);
                any = true;
            }
        }
        if (!any) {
            // Nothing ready: park on the doorbell (simulated poll).
            uint64_t cur = doorbell.load(std::memory_order_acquire);
            if (cur == seen)
                doorbell.wait(cur, std::memory_order_acquire);
            seen = doorbell.load(std::memory_order_acquire);
        }
    }
    // Drain: fail requests that raced with shutdown so no GPU block
    // waits forever.
    for (auto &port : ports) {
        RpcSlot *slot;
        while ((slot = port->queue->poll()) != nullptr) {
            RpcResponse resp;
            resp.status = Status::IoError;
            resp.done = slot->req.issueTime;
            RpcQueue::complete(*slot, resp);
        }
    }
}

void
CpuDaemon::serviceSweep(unsigned port_idx, RpcSlot **all, unsigned total)
{
    GpuPort &port = *ports[port_idx];
    std::sort(all, all + total,
              [](const RpcSlot *a, const RpcSlot *b) {
                  return a->req.issueTime < b->req.issueTime;
              });
    // Serving tier: with weights configured and several tenants in the
    // sweep, re-emit in weighted deficit-round-robin order so a scan
    // tenant's deep batches reserve the serialized CPU timeline AFTER
    // the point tenants' slots instead of ahead of them.
    drrOrder(port, all, total);
    // Group commit: append every write-op slot's journal txn and make
    // them durable with ONE fsync before any in-place write
    // runs (see prejournalSweep for the WAL ordering argument).
    prejournalSweep(port_idx, all, total);
    // Cross-block RPC aggregation: the burst a coalesced doorbell
    // delivered as one sweep usually carries many blocks' ReadPages
    // on the SAME file (a shared scan) — gather each same-file set
    // into one host read instead of k. Groups are serviced at their
    // first member's place in the emission order.
    bool taken[kQueueSlots] = {};
    for (unsigned s = 0; s < total; ++s) {
        if (taken[s])
            continue;
        RpcSlot *group[kQueueSlots];
        unsigned k = 0;
        group[k++] = all[s];
        const RpcRequest &req = all[s]->req;
        // Requests the victim tier fully covers stay OUT of the
        // gathered storage read: served individually they skip the
        // host read entirely (one H2D from host RAM), which is the
        // whole point of the tier. victimCoversReq is a count-free
        // peek, so members that do ride a group keep exact hit/miss
        // accounting.
        const bool groupable = req.op == RpcOp::ReadPages &&
                               batchOk(req) && !victimCoversReq(req);
        for (unsigned t = s + 1; groupable && t < total; ++t) {
            const RpcRequest &r2 = all[t]->req;
            if (!taken[t] && r2.op == RpcOp::ReadPages &&
                r2.hostFd == req.hostFd && batchOk(r2) &&
                !victimCoversReq(r2)) {
                group[k++] = all[t];
                taken[t] = true;
            }
        }
        // Count before servicing: a completed slot belongs to its
        // submitter again and may already carry a new request.
        for (unsigned m = 0; m < k; ++m)
            tenantRpcs[group[m]->req.tenant % core::kMaxTenants]->inc();
        if (isRead(req.op)) {
            serviceRead(port_idx, group, k);
        } else {
            auto pj = prejournalDone_.find(all[s]);
            if (pj != prejournalDone_.end()) {
                slotPrejournaled_ = true;
                slotPrejournalTime_ = pj->second;
                prejournalDone_.erase(pj);
            }
            RpcResponse resp = handle(port_idx, req);
            slotPrejournaled_ = false;
            RpcQueue::complete(*all[s], resp);
        }
        requestsServed.inc(k);
    }
    // Belt and braces: a per-RPC fallback append syncs inline, so
    // nothing should be pending here — but never leave a sweep with
    // un-synced journal records (a later in-place write would outrun
    // them).
    flushJournalSync();
}

void
CpuDaemon::drrOrder(GpuPort &port, RpcSlot **batch, unsigned n)
{
    if (!drr_ || n < 2)
        return;
    // Stable partition into per-tenant sublists, so each tenant's own
    // requests keep their issue-time order.
    std::vector<RpcSlot *> per[core::kMaxTenants];
    unsigned present = 0;
    for (unsigned i = 0; i < n; ++i) {
        uint8_t t = batch[i]->req.tenant % core::kMaxTenants;
        if (per[t].empty())
            ++present;
        per[t].push_back(batch[i]);
    }
    if (present < 2)
        return;
    // DRR emission: each round credits every backlogged tenant its
    // weight and emits requests while the deficit covers their page
    // cost — a 16-page scan batch needs 16 credits, a point lookup 1,
    // so light tenants drain ahead of a heavy tenant's backlog in
    // proportion to weight. Rounds repeat until the sweep drains
    // (every request IS serviced — DRR shapes order, never drops).
    unsigned head[core::kMaxTenants] = {};
    unsigned emitted = 0;
    while (emitted < n) {
        for (unsigned t = 0; t < core::kMaxTenants; ++t) {
            if (head[t] >= per[t].size())
                continue;
            port.drrDeficit[t] +=
                tenantWeight_[t] != 0 ? tenantWeight_[t] : 1;
            while (head[t] < per[t].size()) {
                const RpcRequest &r = per[t][head[t]]->req;
                uint64_t cost = r.pageCount != 0 ? r.pageCount : 1;
                if (port.drrDeficit[t] < cost)
                    break;
                port.drrDeficit[t] -= cost;
                batch[emitted++] = per[t][head[t]++];
            }
        }
    }
    // Classic DRR empty-queue rule: a drained tenant banks no credit
    // (every tenant drains within the sweep, so deficits stay bounded
    // by one request's cost).
    for (unsigned t = 0; t < core::kMaxTenants; ++t) {
        if (!per[t].empty())
            port.drrDeficit[t] = 0;
    }
}

RpcResponse
CpuDaemon::handle(unsigned port_idx, const RpcRequest &req)
{
    gpu::GpuDevice &dev = *ports[port_idx]->dev;
    auto &sim = dev.simContext();
    const auto &p = sim.params;

    // Every request pays queue-submit latency plus the daemon's
    // per-request handling on the (single) host CPU it is pinned to.
    Time ready = req.issueTime + p.rpcSubmitLat;
    Time t0 = sim.cpuIo.reserve(ready, p.rpcCpuOverhead).end;

    RpcResponse resp;
    resp.done = t0;
    switch (req.op) {
      case RpcOp::Open:
        handleOpen(dev, req, resp);
        break;
      case RpcOp::Close:
        handleClose(dev, req, resp);
        break;
      case RpcOp::ReadPage:
      case RpcOp::ReadPages:
      case RpcOp::PeerReadPages:
        gpufs_assert(false, "reads are served by serviceRead");
        break;
      case RpcOp::WriteBack:
      case RpcOp::WritePages:
      case RpcOp::PeerWritePages:
        resp = serviceWrite(dev, req, t0);
        break;
      case RpcOp::Fsync: {
        uint64_t ino = 0;
        if (req.durableBarrier && journal_ && durableFd(req.hostFd, &ino)) {
            // gmsync barrier on a journaled file: the commit record IS
            // the durability point — force the sweep's group commit
            // out first (same-sweep appends must be covered), then
            // answer from the commit record. No data-file fsync.
            journalCommitBarriers.inc();
            resp.status = flushJournalSync();
            if (ok(resp.status))
                resp.done = std::max(t0, journal_->lastCommitDone(ino));
        } else {
            hostfs::IoResult r = retryTransient(
                fs, ioRetries, ioRetryGiveups,
                [&](Time backoff) {
                    return backend_->sync(req.hostFd, t0 + backoff,
                                          dev.id());
                });
            resp.status = r.status;
            resp.done = r.done;
        }
        break;
      }
      case RpcOp::Truncate: {
        resp.status = fs.ftruncate(req.hostFd, req.offset);
        if (ok(resp.status)) {
            hostfs::FileInfo info;
            if (ok(fs.fstat(req.hostFd, &info))) {
                resp.size = info.size;
                resp.version = info.version;
            }
        }
        break;
      }
      case RpcOp::Unlink: {
        hostfs::FileInfo info;
        if (ok(fs.stat(req.path, &info))) {
            consistency.dropFile(info.ino);
            if (victim_)
                victim_->dropFile(info.ino);
        }
        resp.status = fs.unlink(req.path);
        break;
      }
      case RpcOp::Stat: {
        hostfs::FileInfo info;
        resp.status = fs.stat(req.path, &info);
        if (ok(resp.status)) {
            resp.ino = info.ino;
            resp.size = info.size;
            resp.version = info.version;
        }
        break;
      }
      case RpcOp::Nop:
        break;
    }
    return resp;
}

void
CpuDaemon::handleOpen(gpu::GpuDevice &dev, const RpcRequest &req,
                      RpcResponse &resp)
{
    int fd = fs.open(req.path, req.flags, &resp.status);
    if (fd < 0)
        return;
    hostfs::FileInfo info;
    fs.fstat(fd, &info);

    resp.status = consistency.acquireOpen(dev.id(), info.ino,
                                          req.wantsWrite,
                                          req.mergeableWriter);
    if (!ok(resp.status)) {
        fs.close(fd);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(claimMtx);
        fdClaims[fd] = {info.ino, req.wantsWrite,
                        (req.flags & hostfs::O_GDURABLE_F) != 0};
    }
    resp.hostFd = fd;
    resp.ino = info.ino;
    resp.size = info.size;
    resp.version = info.version;
}

void
CpuDaemon::handleClose(gpu::GpuDevice &dev, const RpcRequest &req,
                       RpcResponse &resp)
{
    FdClaim claim{0, false, false};
    bool have_claim = false;
    {
        std::lock_guard<std::mutex> lock(claimMtx);
        auto it = fdClaims.find(req.hostFd);
        if (it != fdClaims.end()) {
            claim = it->second;
            have_claim = true;
            fdClaims.erase(it);
        }
    }
    if (have_claim)
        consistency.releaseOpen(dev.id(), claim.ino, claim.write);
    resp.status = fs.close(req.hostFd);
}

// ---- DMA charges -------------------------------------------------------

namespace {

/** One DMA of @p bytes on @p channel ready at @p ready: a setup cost
 *  plus wire time, and nothing when Fig 5 turns DMA charging off. */
Time
reserveDma(sim::Resource &channel, const sim::HwParams &p, Time setup,
           double mbps, uint64_t bytes, Time ready)
{
    if (bytes == 0 || !p.chargeDma)
        return ready;
    return channel.reserve(ready, setup + transferTime(bytes, mbps)).end;
}

} // namespace

Time
CpuDaemon::chargeH2dDma(gpu::GpuDevice &dev, uint64_t bytes, Time ready,
                        bool from_storage)
{
    // Staging -> GPU on this GPU's own H2D channel (the bytes are
    // already in place: one copy in simulation). Zero-copy backends DMA
    // storage reads straight into the frame arena — their read charge
    // covered the wire — but victim-tier bytes sit in the pinned host
    // pool and cross PCIe with any backend.
    const auto &p = dev.simContext().params;
    bytesToGpu.inc(bytes);
    if (from_storage && backend_->directToGpu())
        return ready;
    return reserveDma(dev.pcieH2D(), p, p.dmaSetup, p.pcieBwH2DMBps, bytes,
                      ready);
}

Time
CpuDaemon::chargeP2pDma(gpu::GpuDevice &dev, unsigned src, unsigned dst,
                        uint64_t bytes, Time ready)
{
    // One reservation per request on the pair's own channel: peer
    // transfers of different GPU pairs overlap instead of serializing
    // on the daemon's cpuIo path or the host PCIe links.
    auto &sim = dev.simContext();
    bytesPeer.inc(bytes);
    if (bytes == 0)
        return ready;   // no pair channel to look up
    return reserveDma(sim.p2p(src, dst), sim.params, sim.params.p2pDmaSetup,
                      sim.params.pcieP2PBwMBps, bytes, ready);
}

PeerPageSource *
CpuDaemon::peerSourceOf(const RpcRequest &req)
{
    if (req.peerGpu >= ports.size())
        return nullptr;
    return ports[req.peerGpu]->peerSource.load(std::memory_order_acquire);
}

bool
CpuDaemon::victimCoversReq(const RpcRequest &req)
{
    if (!victim_ || req.pageLen == 0 || req.pageCount == 0 ||
        req.offset % req.pageLen != 0) {
        return false;
    }
    hostfs::FileInfo info;
    if (!ok(fs.fstat(req.hostFd, &info)))
        return false;
    uint64_t expect[kMaxBatchPages];
    for (unsigned i = 0; i < req.pageCount; ++i) {
        uint64_t off = req.offset + uint64_t(i) * req.pageLen;
        expect[i] = off < info.size
            ? std::min<uint64_t>(req.pageLen, info.size - off) : 0;
    }
    return victim_->coversRun(info.ino, req.offset / req.pageLen,
                              req.pageCount, info.version, expect);
}

void
CpuDaemon::victimInvalidate(int host_fd, const hostfs::WriteRun *runs,
                            unsigned n)
{
    if (!victim_ || n == 0)
        return;
    hostfs::FileInfo info;
    if (!ok(fs.fstat(host_fd, &info)))
        return;
    for (unsigned i = 0; i < n; ++i)
        victim_->invalidateRange(info.ino, runs[i].offset, runs[i].len);
}

// ---- read pipeline: plan -> gather -> issue -> fan-out -----------------

struct CpuDaemon::ReadPlan {
    /** Where one page is served from. */
    enum Source : uint8_t { Storage, Victim, Peer };
    /** Bytes one source moves to the GPU, and when that DMA may start. */
    struct Leg {
        uint64_t bytes = 0;
        Time ready = 0;
    };

    RpcSlot *slot = nullptr;
    /** Pages, page size and page buffers: ReadPage is a one-page
     *  batch. */
    unsigned n = 0;
    uint64_t plen = 0;
    uint8_t *const *dst = nullptr;
    Source src[kMaxBatchPages] = {};
    /** Bytes of file content each page received. */
    uint32_t valid[kMaxBatchPages] = {};
    PeerPageSource *peer = nullptr;
    unsigned forwarded = 0;
    Leg leg[3];
    /** Gathered storage runs, in page order. */
    hostfs::ReadRun runs[kMaxBatchPages];
    unsigned nRuns = 0;
    Time done = 0;
};

void
CpuDaemon::planRead(ReadPlan &pl, RpcSlot *slot, bool solo, Time t0)
{
    const RpcRequest &req = slot->req;
    const bool one_page = req.op == RpcOp::ReadPage;
    pl.slot = slot;
    pl.n = one_page ? 1 : req.pageCount;
    pl.plen = one_page ? req.len : req.pageLen;
    pl.dst = one_page ? &req.data : req.batch;
    pl.done = t0;
    for (ReadPlan::Leg &leg : pl.leg)
        leg.ready = t0;

    // 1. The owner GPU's resident frames (PeerReadPages). The copy is
    //    functional (the provider pins the owner frame for its
    //    duration); its cost is one P2P DMA, ready no earlier than the
    //    latest source frame's own DMA-completion time.
    if (req.op == RpcOp::PeerReadPages) {
        peerReadRpcs.inc();
        pl.peer = peerSourceOf(req);
        for (unsigned i = 0; pl.peer && i < pl.n; ++i) {
            if (pl.peer->peerCopyPage(req.ino, req.offset / pl.plen + i,
                                      req.version, pl.dst[i], &pl.valid[i],
                                      &pl.leg[ReadPlan::Peer].ready)) {
                pl.src[i] = ReadPlan::Peer;
                pl.leg[ReadPlan::Peer].bytes += pl.plen;
                ++pl.forwarded;
            }
        }
    }

    // 2. The victim tier: demotion-staged pages at the host's CURRENT
    //    version, served from host RAM with one H2D. Probed only for
    //    page-aligned requests, and not for sweep-group members (the
    //    group reads them from storage with the rest).
    uint64_t eof = UINT64_MAX;  // unknown unless fstat'ed here
    hostfs::FileInfo info;
    if (solo && victim_ && pl.plen > 0 && req.offset % pl.plen == 0 &&
        ok(fs.fstat(req.hostFd, &info))) {
        eof = info.size;
        for (unsigned i = 0; i < pl.n; ++i) {
            uint64_t off = req.offset + uint64_t(i) * pl.plen;
            if (pl.src[i] != ReadPlan::Storage || off >= info.size)
                continue;
            uint64_t expect = std::min<uint64_t>(pl.plen, info.size - off);
            if (victim_->probe(info.ino, off / pl.plen, info.version,
                               pl.dst[i], expect,
                               &pl.leg[ReadPlan::Victim].ready)) {
                pl.src[i] = ReadPlan::Victim;
                pl.valid[i] = static_cast<uint32_t>(expect);
                pl.leg[ReadPlan::Victim].bytes += expect;
            }
        }
    }

    // 3. Storage for the rest, each maximal run of pages one extent.
    //    A run starting past a known EOF would read nothing and is
    //    left out — unless it is the whole request, which still asks
    //    storage for its (0-byte) answer.
    for (unsigned i = 0; i < pl.n;) {
        if (pl.src[i] != ReadPlan::Storage) {
            ++i;
            continue;
        }
        unsigned end = i + 1;
        while (end < pl.n && pl.src[end] == ReadPlan::Storage)
            ++end;
        uint64_t off = req.offset + uint64_t(i) * pl.plen;
        if (off < eof || end - i == pl.n)
            pl.runs[pl.nRuns++] = {off, &pl.dst[i], end - i, pl.plen};
        i = end;
    }
}

void
CpuDaemon::serviceRead(unsigned port_idx, RpcSlot **slots, unsigned k)
{
    gpu::GpuDevice &dev = *ports[port_idx]->dev;
    auto &sim = dev.simContext();
    const auto &p = sim.params;

    // Every request pays queue-submit latency plus the daemon's
    // per-request handling on the (single) host CPU it is pinned to.
    // A sweep group is ONE daemon action: it starts once the LAST
    // member has crossed the queue and pays one rpcCpuOverhead.
    Time ready = 0;
    for (unsigned m = 0; m < k; ++m)
        ready = std::max(ready, slots[m]->req.issueTime);
    const Time t0 =
        sim.cpuIo.reserve(ready + p.rpcSubmitLat, p.rpcCpuOverhead).end;
    if (!batchOk(slots[0]->req)) {
        RpcResponse resp;
        resp.status = Status::Inval;
        resp.done = t0;
        RpcQueue::complete(*slots[0], resp);
        return;
    }
    std::vector<ReadPlan> plans(k);
    for (unsigned m = 0; m < k; ++m)
        planRead(plans[m], slots[m], k == 1, t0);

    // Issue: storage call j carries the j-th run of every plan, so a
    // sweep group's members share ONE gathered read (and one H2D),
    // while a request whose storage pages are split by victim or peer
    // pages issues one call per run, as separate preads would. All
    // runs are on one host fd (group members share it).
    const int fd = slots[0]->req.hostFd;
    for (unsigned j = 0;; ++j) {
        hostfs::ReadRun call[2 * kQueueSlots];
        ReadPlan *of[2 * kQueueSlots];
        unsigned c = 0;
        for (ReadPlan &pl : plans) {
            if (j < pl.nRuns) {
                of[c] = &pl;
                call[c++] = pl.runs[j];
            }
        }
        if (c == 0)
            break;
        hostfs::IoResult r = retryTransient(
            fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                return backend_->readRuns(fd, call, c, t0 + backoff,
                                          dev.id());
            });
        hostReadCalls.inc();
        if (!ok(r.status) && k > 1) {
            // Gathered read refused (stale fd raced a close, or a host
            // fault outlived the retry budget): serve each member
            // alone so per-slot status stays exact.
            for (unsigned m = 0; m < k; ++m)
                serviceRead(port_idx, &slots[m], 1);
            return;
        }
        if (!ok(r.status)) {
            // The requesting GPU restores the frames it claimed.
            RpcResponse resp;
            resp.status = r.status;
            resp.done = std::max(plans[0].done, r.done);
            if (slots[0]->req.speculative)
                raPagesFetched.inc(plans[0].n);
            RpcQueue::complete(*slots[0], resp);
            return;
        }
        const bool peer_read = of[0]->slot->req.op == RpcOp::PeerReadPages;
        const Time dma = peer_read ? r.done
                                   : chargeH2dDma(dev, r.bytes, r.done, true);
        for (unsigned i = 0; i < c; ++i) {
            ReadPlan &pl = *of[i];
            const RpcRequest &req = pl.slot->req;
            const unsigned first = static_cast<unsigned>(call[i].dsts - pl.dst);
            for (unsigned q = first; q < first + call[i].nPages; ++q) {
                uint64_t base = uint64_t(q - first) * pl.plen;
                pl.valid[q] = static_cast<uint32_t>(
                    call[i].bytes > base
                        ? std::min<uint64_t>(pl.plen, call[i].bytes - base)
                        : 0);
                // Owner warming: the fallback read these bytes BECAUSE
                // the owner was cold — adopt them into the owner's
                // cache (best effort: try-locks, free frames above the
                // claim reserve, the faulting tenant under its quota),
                // so a repeat miss forwards peer-to-peer instead of
                // paying the storage round trip again.
                if (peer_read && pl.peer && pl.valid[q] != 0 &&
                    pl.peer->peerAdoptPage(req.ino, req.offset / pl.plen + q,
                                           req.version, pl.dst[q],
                                           pl.valid[q], r.done, req.tenant)) {
                    peerPagesAdopted.inc();
                }
            }
            ReadPlan::Leg &storage = pl.leg[ReadPlan::Storage];
            storage.bytes += call[i].bytes;
            storage.ready = std::max(storage.ready, r.done);
            pl.done = std::max(pl.done, dma);
        }
    }

    // Fan-out: one DMA per remaining source (a peer read's storage
    // fallback rides one H2D for all its runs), then every slot
    // completes with its own byte count.
    for (ReadPlan &pl : plans) {
        const RpcRequest &req = pl.slot->req;
        const ReadPlan::Leg *leg = pl.leg;
        RpcResponse resp;
        if (req.op == RpcOp::PeerReadPages) {
            pl.done = std::max(pl.done,
                               chargeH2dDma(dev, leg[ReadPlan::Storage].bytes,
                                            leg[ReadPlan::Storage].ready,
                                            true));
            peerPagesForwarded.inc(pl.forwarded);
            peerPagesHost.inc(pl.n - pl.forwarded);
        }
        pl.done = std::max(pl.done,
                           chargeH2dDma(dev, leg[ReadPlan::Victim].bytes,
                                        leg[ReadPlan::Victim].ready, false));
        pl.done = std::max(pl.done,
                           chargeP2pDma(dev, req.peerGpu, req.gpuId,
                                        leg[ReadPlan::Peer].bytes,
                                        leg[ReadPlan::Peer].ready));
        if (req.speculative)
            raPagesFetched.inc(pl.n);
        // Valid bytes are contiguous from the batch start (short pages
        // only at EOF), so one total is the whole response contract.
        for (unsigned i = 0; i < pl.n; ++i)
            resp.bytes += pl.valid[i];
        resp.peerPages = pl.forwarded;
        resp.done = pl.done;
        RpcQueue::complete(*pl.slot, resp);
    }
    coalescedRpcs.inc(k - 1);
}

// ---- write pipeline --------------------------------------------------

RpcResponse
CpuDaemon::serviceWrite(gpu::GpuDevice &dev, const RpcRequest &req, Time t0)
{
    auto &sim = dev.simContext();
    RpcResponse resp;
    resp.done = t0;
    if (!batchOk(req)) {
        resp.status = Status::Inval;
        return resp;
    }
    const bool peer_write = req.op == RpcOp::PeerWritePages;
    if (peer_write)
        peerWriteRpcs.inc();

    // GPU pages -> staging: the whole request rides ONE D2H DMA
    // reservation (a single setup cost) — the per-request CPU overhead
    // was charged once by handle(), which is the point of batching.
    hostfs::WriteRun ext[kMaxBatchPages];
    const unsigned n = extentsOf(req, ext);
    uint64_t total = 0;
    for (unsigned i = 0; i < n; ++i)
        total += ext[i].len;
    const auto &p = sim.params;
    Time t = backend_->directToGpu()
        ? t0 : reserveDma(dev.pcieD2H(), p, p.dmaSetup, p.pcieBwD2HMBps,
                          total, t0);
    resp.done = t;

    // Every run lands through ONE gathered pwritev after its journal
    // commit: one syscall charge, one version bump. For PeerWritePages
    // the host write comes FIRST — a failed host write must not leave
    // the owner's cache holding never-durable bytes at a
    // still-matching version.
    std::vector<hostfs::WriteRun> runs = writeRunsOf(req);
    const unsigned nruns = static_cast<unsigned>(runs.size());
    if (nruns > 0) {
        bool journaled = false;
        Status js = maybeJournal(req.hostFd, runs.data(), nruns, t,
                                 &sim.cpuIo, &journaled);
        if (!ok(js)) {
            resp.status = js;
            resp.done = t;
            return resp;
        }
        hostfs::IoResult w = retryTransient(
            fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                return backend_->writev(req.hostFd, runs.data(), nruns,
                                        t + backoff, dev.id());
            });
        resp.done = w.done;
        if (!ok(w.status)) {
            resp.status = w.status;
            return resp;
        }
        journalApplied(journaled);
        victimInvalidate(req.hostFd, runs.data(), nruns);
        resp.bytes = w.bytes;
        // The post-write version, so the writing GPU keeps its cached
        // version current (its own writes are not remote changes).
        resp.version = w.version;
    }
    bytesFromGpu.inc(total);
    if (!peer_write)
        return resp;

    // Mirror the now-durable extents into the owner's resident pages
    // (the requester holds the source pages, so the bytes are stable):
    // later peer reads then keep serving current data instead of
    // failing their version gate. The mirror bytes ride the pair's P2P
    // channel.
    PeerPageSource *src = peerSourceOf(req);
    unsigned mirrored = 0;
    unsigned nonzero = 0;
    uint64_t p2p_bytes = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (ext[i].len == 0)
            continue;
        ++nonzero;
        uint32_t len = static_cast<uint32_t>(ext[i].len);
        if (src && src->peerMirrorExtent(
                       req.ino, ext[i].offset / req.pageLen, req.version,
                       static_cast<uint32_t>(ext[i].offset % req.pageLen),
                       ext[i].data, len)) {
            ++mirrored;
            p2p_bytes += len;
        }
    }
    resp.done = std::max(resp.done, chargeP2pDma(dev, req.gpuId, req.peerGpu,
                                                 p2p_bytes, t0));
    // A fully-mirrored batch leaves the owner's cache equal to the
    // post-write host content, so the owner's version advances with
    // the write instead of going stale — but only when the requester
    // marked this RPC as its write's ONLY partition (peerPublish):
    // when sibling partitions changed other pages of the same file in
    // the same flush, the owner may cache those pages too and a
    // publish would wrongly validate them.
    if (src && req.peerPublish && resp.version != 0 &&
        mirrored == nonzero && nonzero > 0) {
        src->peerPublishVersion(req.ino, req.version, resp.version);
    }
    peerExtentsMirrored.inc(mirrored);
    resp.peerPages = mirrored;
    return resp;
}

} // namespace rpc
} // namespace gpufs
