#include "rpc/daemon.hh"

#include <algorithm>
#include <chrono>
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
CpuDaemon::setSweepLinger(Time deadline)
{
    gpufs_assert(!running.load(), "setSweepLinger after start");
    linger_ = deadline;
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

/** Aggregation linger's wall-clock safety bound: ~200ms of 50us naps
 *  waiting for a census-visible straggler to publish. Generous — a
 *  mid-fill block publishes in microseconds — but finite, so a block
 *  that claimed a slot and stalled can never wedge parked requests. */
constexpr unsigned kLingerMaxSpins = 4000;

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

// Defined below, next to the write-back handlers that share it.
void appendZeroDiffRuns(std::vector<hostfs::WriteRun> &runs, uint64_t off,
                        const uint8_t *data, uint64_t len);

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
        journalCommits.inc();
        journalUnapplied_.fetch_add(1, std::memory_order_relaxed);
        if (journaled)
            *journaled = true;
        t = std::max(t, slotPrejournalTime_);
        // Crash point "commit durable, in-place write never ran":
        // exactly the window recovery's replay exists for.
        if (fs.maybeCrash(sim::CrashPoint::AfterJournalCommit))
            return Status::IoError;
        return Status::Ok;
    }
    // Fallback (preflight append failed or was skipped): per-RPC
    // append + fsync. The sync cannot be deferred to the sweep's end —
    // a crash reverts un-fsynced journal records, so an in-place write
    // issued before the sync would be unrecoverable if torn.
    const Time base = t;
    hostfs::IoResult j = retryTransient(
        fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
            return journal_->append(ino, runs, n, base + backoff, io);
        });
    if (!ok(j.status))
        return j.status;
    hostfs::IoResult s = retryTransient(
        fs, ioRetries, ioRetryGiveups,
        [&](Time backoff) { return journal_->groupSync(j.done + backoff); });
    if (!ok(s.status))
        return s.status;
    journalGroupSyncs.inc();
    journalCommits.inc();
    journalUnapplied_.fetch_add(1, std::memory_order_relaxed);
    if (journaled)
        *journaled = true;
    t = s.done;
    // Crash point "commit durable, in-place write never ran": exactly
    // the window recovery's replay exists for.
    if (fs.maybeCrash(sim::CrashPoint::AfterJournalCommit))
        return Status::IoError;
    return Status::Ok;
}

Status
CpuDaemon::flushJournalSync()
{
    // Never after a crash: the appended records then belong to
    // recovery's replay, and fsyncing a dead store is not transient.
    if (!journal_ || !journal_->syncPending() || fs.crashed())
        return Status::Ok;
    hostfs::IoResult s = retryTransient(
        fs, ioRetries, ioRetryGiveups,
        [&](Time backoff) { return journal_->groupSync(backoff); });
    if (!ok(s.status))
        return s.status;
    journalGroupSyncs.inc();
    return Status::Ok;
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
        // Reconstruct exactly the runs the handler will journal (same
        // validation guards, same zero-diff split) — the staging bytes
        // are already host-visible when the slot is claimed; only the
        // D2H DMA's virtual-time charge happens later in the handler.
        std::vector<hostfs::WriteRun> runs;
        switch (req.op) {
        case RpcOp::WritePages:
            if (req.pageCount == 0 || req.pageCount > kMaxBatchPages)
                continue;
            for (unsigned i = 0; i < req.pageCount; ++i) {
                if (req.batchLen[i] == 0)
                    continue;
                if (req.diffAgainstZeros) {
                    appendZeroDiffRuns(runs, req.batchOff[i],
                                       req.batch[i], req.batchLen[i]);
                } else {
                    runs.push_back({req.batchOff[i], req.batchLen[i],
                                    req.batch[i]});
                }
            }
            break;
        case RpcOp::PeerWritePages:
            if (req.pageCount == 0 || req.pageCount > kMaxBatchPages ||
                req.pageLen == 0)
                continue;
            for (unsigned i = 0; i < req.pageCount; ++i) {
                if (req.batchLen[i] == 0)
                    continue;
                runs.push_back({req.batchOff[i], req.batchLen[i],
                                req.batch[i]});
            }
            break;
        case RpcOp::WriteBack:
            if (req.diffAgainstZeros)
                appendZeroDiffRuns(runs, req.offset, req.data, req.len);
            else if (req.len > 0)
                runs.push_back({req.offset, req.len, req.data});
            break;
        default:
            continue;
        }
        uint64_t ino = 0;
        if (runs.empty() || !durableFd(req.hostFd, &ino))
            continue;
        hostfs::IoResult j = retryTransient(
            fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                return journal_->append(ino, runs.data(),
                                        static_cast<unsigned>(runs.size()),
                                        req.issueTime + backoff,
                                        &sim.cpuIo);
            });
        if (!ok(j.status))
            continue; // handler's maybeJournal falls back per-RPC
        prejournalDone_[all[s]] = j.done;
        appended = true;
    }
    if (!appended)
        return;
    hostfs::IoResult gs = retryTransient(
        fs, ioRetries, ioRetryGiveups,
        [&](Time backoff) { return journal_->groupSync(backoff); });
    if (!ok(gs.status) || fs.crashed()) {
        // The group fsync failed (or a crash fired mid-preflight): the
        // appends are NOT durable, so the handlers must not treat them
        // as committed — drop the records and let maybeJournal's
        // per-RPC fallback re-establish the WAL ordering (or surface
        // the error).
        prejournalDone_.clear();
        return;
    }
    journalGroupSyncs.inc();
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
            // Aggregation linger: a sweep parked an under-filled
            // ReadPages group because the occupancy census showed more
            // of the burst still arriving. Hold here while that
            // evidence persists (bounded spin — a block mid-fill
            // publishes in microseconds), merge the stragglers when
            // they land, and flush the parked slots solo once the
            // census empties or the bound expires.
            unsigned spins = 0;
            while (!ports[i]->parked.empty()) {
                any = true;
                if ((n = ports[i]->queue->pollAll(batch, kQueueSlots))
                    > 0) {
                    serviceSweep(i, batch, n);
                    continue;
                }
                if (ports[i]->queue->occupiedHint() == 0 ||
                    ++spins > kLingerMaxSpins ||
                    !running.load(std::memory_order_acquire)) {
                    serviceSweep(i, nullptr, 0);
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
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
    // Drain: flush anything still parked (belt and braces — the
    // linger spin flushes on the running edge), then fail requests
    // that raced with shutdown so no GPU block waits forever.
    for (unsigned i = 0; i < ports.size(); ++i) {
        if (!ports[i]->parked.empty())
            serviceSweep(i, nullptr, 0);
    }
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
CpuDaemon::serviceSweep(unsigned port_idx, RpcSlot **batch, unsigned n)
{
    GpuPort &port = *ports[port_idx];
    // Merge slots the aggregation linger parked last sweep ahead of
    // this sweep's claims; a merged slot is never parked twice.
    RpcSlot *all[2 * kQueueSlots];
    const bool had_parked = !port.parked.empty();
    unsigned total = 0;
    for (RpcSlot *s : port.parked)
        all[total++] = s;
    port.parked.clear();
    for (unsigned i = 0; i < n; ++i)
        all[total++] = batch[i];
    if (total == 0)
        return;
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
    // them durable with ONE fsync before any handler's in-place write
    // runs (see prejournalSweep for the WAL ordering argument).
    prejournalSweep(port_idx, all, total);
    // Cross-block RPC aggregation: the burst a coalesced doorbell
    // delivered as one sweep usually carries many blocks' ReadPages
    // on the SAME file (a shared scan) — gather each same-file set
    // into one host read instead of k. Groups are serviced at their
    // first member's place in the emission order; everything else
    // keeps the plain per-slot path.
    bool taken[2 * kQueueSlots] = {};
    for (unsigned s = 0; s < total; ++s) {
        if (taken[s])
            continue;
        RpcSlot *group[2 * kQueueSlots];
        unsigned k = 0;
        const RpcRequest &req = all[s]->req;
        // Requests the victim tier fully covers stay OUT of the
        // gathered storage read: served individually they skip the
        // host read entirely (one H2D from host RAM), which is the
        // whole point of the tier. victimCoversReq is a count-free
        // peek, so members that do ride a group keep exact hit/miss
        // accounting.
        if (req.op == RpcOp::ReadPages && req.pageCount > 0 &&
            req.pageCount <= kMaxBatchPages && !victimCoversReq(req)) {
            group[k++] = all[s];
            for (unsigned t = s + 1; t < total; ++t) {
                if (taken[t])
                    continue;
                const RpcRequest &r2 = all[t]->req;
                if (r2.op == RpcOp::ReadPages &&
                    r2.hostFd == req.hostFd &&
                    r2.pageCount > 0 && r2.pageCount <= kMaxBatchPages &&
                    !victimCoversReq(r2)) {
                    group[k++] = all[t];
                    taken[t] = true;
                }
            }
        }
        if (k >= 2) {
            // Count before servicing: a completed slot belongs to its
            // submitter again and may already carry a new request.
            for (unsigned m = 0; m < k; ++m) {
                tenantRpcs[group[m]->req.tenant % core::kMaxTenants]
                    ->inc();
            }
            handleReadPagesGroup(port_idx, group, k);
            requestsServed.inc(k);
        } else if (k == 1 && linger_ != 0 && !had_parked &&
                   port.queue->occupiedHint() > 0) {
            // Under-filled group with the burst visibly still arriving
            // (slots Filling/Ready in the census): park it for one
            // extra sweep instead of issuing a lone host read — the
            // loop's linger spin merges it with the stragglers, or
            // flushes it solo at the (virtual-deadline-sized) bound.
            port.parked.push_back(all[s]);
        } else {
            auto pj = prejournalDone_.find(all[s]);
            if (pj != prejournalDone_.end()) {
                slotPrejournaled_ = true;
                slotPrejournalTime_ = pj->second;
                prejournalDone_.erase(pj);
            }
            RpcResponse resp = handle(port_idx, req);
            slotPrejournaled_ = false;
            tenantRpcs[req.tenant % core::kMaxTenants]->inc();
            RpcQueue::complete(*all[s], resp);
            requestsServed.inc();
        }
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

void
CpuDaemon::handleReadPagesGroup(unsigned port_idx, RpcSlot **group,
                                unsigned k)
{
    gpu::GpuDevice &dev = *ports[port_idx]->dev;
    auto &sim = dev.simContext();
    const auto &p = sim.params;

    // One daemon action for the whole group: the sweep claimed every
    // member together, so the shared CPU-overhead reservation starts
    // once the LAST member's request has crossed the queue — k
    // requests, ONE rpcCpuOverhead instead of k.
    Time ready = 0;
    for (unsigned m = 0; m < k; ++m)
        ready = std::max(ready, group[m]->req.issueTime);
    ready += p.rpcSubmitLat;
    Time t0 = sim.cpuIo.reserve(ready, p.rpcCpuOverhead).end;

    std::vector<hostfs::ReadRun> runs(k);
    for (unsigned m = 0; m < k; ++m) {
        const RpcRequest &req = group[m]->req;
        runs[m] = {req.offset, req.batch, req.pageCount, req.pageLen};
    }
    hostfs::IoResult r = retryTransient(
        fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
            return backend_->readRuns(group[0]->req.hostFd, runs.data(), k,
                                      t0 + backoff, dev.id());
        });
    if (!ok(r.status)) {
        // Gathered read refused (stale fd raced a close, or a host
        // fault outlived the retry budget): fall back to serving each
        // member alone so per-slot status stays exact — a member that
        // still fails completes with its error IoResult and the
        // requesting GPU restores the frames it claimed.
        for (unsigned m = 0; m < k; ++m) {
            RpcResponse resp = handle(port_idx, group[m]->req);
            RpcQueue::complete(*group[m], resp);
        }
        return;
    }
    hostReadCalls.inc();
    coalescedRpcs.inc(k - 1);
    for (unsigned m = 0; m < k; ++m) {
        if (group[m]->req.speculative)
            raPagesFetched.inc(group[m]->req.pageCount);
    }

    // The gathered bytes ride ONE H2D DMA reservation (one setup cost);
    // every member's completion fans back out with its own byte count.
    Time done = chargeH2dDma(dev, r.bytes, r.done);
    for (unsigned m = 0; m < k; ++m) {
        RpcResponse resp;
        resp.status = Status::Ok;
        resp.bytes = runs[m].bytes;
        resp.done = done;
        RpcQueue::complete(*group[m], resp);
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
    switch (req.op) {
      case RpcOp::Open:
        resp = handleOpen(dev, req);
        resp.done = t0;
        break;
      case RpcOp::Close:
        resp = handleClose(dev, req);
        resp.done = t0;
        break;
      case RpcOp::ReadPage: {
        RpcRequest timed = req;
        timed.issueTime = t0;
        resp = handleReadPage(dev, timed);
        break;
      }
      case RpcOp::ReadPages: {
        RpcRequest timed = req;
        timed.issueTime = t0;
        resp = handleReadPages(dev, timed);
        break;
      }
      case RpcOp::WriteBack: {
        RpcRequest timed = req;
        timed.issueTime = t0;
        resp = handleWriteBack(dev, timed);
        break;
      }
      case RpcOp::WritePages: {
        RpcRequest timed = req;
        timed.issueTime = t0;
        resp = handleWritePages(dev, timed);
        break;
      }
      case RpcOp::PeerReadPages: {
        RpcRequest timed = req;
        timed.issueTime = t0;
        resp = handlePeerReadPages(dev, timed);
        break;
      }
      case RpcOp::PeerWritePages: {
        RpcRequest timed = req;
        timed.issueTime = t0;
        resp = handlePeerWritePages(dev, timed);
        break;
      }
      case RpcOp::Fsync: {
        uint64_t ino = 0;
        if (req.durableBarrier && journal_ && durableFd(req.hostFd, &ino)) {
            // gmsync barrier on a journaled file: the commit record IS
            // the durability point — force the sweep's group commit
            // out first (same-sweep appends must be covered), then
            // answer from the commit record. No data-file fsync.
            journalCommitBarriers.inc();
            Status js = flushJournalSync();
            if (!ok(js)) {
                resp.status = js;
                resp.done = t0;
                break;
            }
            resp.status = Status::Ok;
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
        resp.done = t0;
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
        resp.done = t0;
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
        resp.done = t0;
        break;
      }
      case RpcOp::Nop:
        resp.done = t0;
        break;
    }
    return resp;
}

RpcResponse
CpuDaemon::handleOpen(gpu::GpuDevice &dev, const RpcRequest &req)
{
    RpcResponse resp;
    Status st;
    int fd = fs.open(req.path, req.flags, &st);
    if (fd < 0) {
        resp.status = st;
        return resp;
    }
    hostfs::FileInfo info;
    fs.fstat(fd, &info);

    Status adm = consistency.acquireOpen(dev.id(), info.ino, req.wantsWrite,
                                         req.mergeableWriter);
    if (!ok(adm)) {
        fs.close(fd);
        resp.status = adm;
        return resp;
    }
    {
        std::lock_guard<std::mutex> lock(claimMtx);
        fdClaims[fd] = {info.ino, req.wantsWrite,
                        (req.flags & hostfs::O_GDURABLE_F) != 0};
    }
    resp.status = Status::Ok;
    resp.hostFd = fd;
    resp.ino = info.ino;
    resp.size = info.size;
    resp.version = info.version;
    return resp;
}

RpcResponse
CpuDaemon::handleClose(gpu::GpuDevice &dev, const RpcRequest &req)
{
    RpcResponse resp;
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
    return resp;
}

Time
CpuDaemon::chargeH2dDma(gpu::GpuDevice &dev, uint64_t bytes, Time ready)
{
    // Staging -> GPU: one DMA reservation on this GPU's H2D channel.
    // Functionally the host read already placed the bytes (one copy in
    // simulation).
    auto &sim = dev.simContext();
    const auto &p = sim.params;
    bytesToGpu.inc(bytes);
    // Zero-copy backends DMA straight into the frame arena — the read
    // charge already covered the wire, so no second PCIe hop here.
    if (bytes == 0 || !p.chargeDma || backend_->directToGpu())
        return ready;
    Time dur = p.dmaSetup + transferTime(bytes, p.pcieBwH2DMBps);
    sim::Resource &channel =
        p.serializeDmaWithIo ? sim.cpuIo : dev.pcieH2D();
    return channel.reserve(ready, dur).end;
}

Time
CpuDaemon::chargeVictimH2d(gpu::GpuDevice &dev, uint64_t bytes, Time ready)
{
    // Victim-tier hit: host RAM -> GPU. No directToGpu() shortcut —
    // gds DMAs STORAGE reads straight to the device, but these bytes
    // sit in the pinned host pool and cross PCIe with any backend.
    auto &sim = dev.simContext();
    const auto &p = sim.params;
    bytesToGpu.inc(bytes);
    if (bytes == 0 || !p.chargeDma)
        return ready;
    Time dur = p.dmaSetup + transferTime(bytes, p.pcieBwH2DMBps);
    sim::Resource &channel =
        p.serializeDmaWithIo ? sim.cpuIo : dev.pcieH2D();
    return channel.reserve(ready, dur).end;
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

RpcResponse
CpuDaemon::handleReadPage(gpu::GpuDevice &dev, const RpcRequest &req)
{
    RpcResponse resp;

    // Victim-tier probe before the storage backend: a demotion-staged
    // page at the host's current version is served from host RAM with
    // one H2D DMA — no host read call at all. Probing only aligned
    // whole-page reads inside the file keeps the gate simple; anything
    // else takes the normal path.
    if (victim_ && req.len > 0 && req.offset % req.len == 0) {
        hostfs::FileInfo info;
        if (ok(fs.fstat(req.hostFd, &info)) && req.offset < info.size) {
            uint64_t expect =
                std::min<uint64_t>(req.len, info.size - req.offset);
            Time vready = req.issueTime;
            if (victim_->probe(info.ino, req.offset / req.len,
                               info.version, req.data, expect,
                               &vready)) {
                resp.status = Status::Ok;
                resp.bytes = expect;
                resp.done = chargeVictimH2d(dev, expect, vready);
                return resp;
            }
        }
    }

    // Host file -> staging: the daemon's pread, serialized on cpuIo.
    hostfs::IoResult r = retryTransient(
        fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
            return backend_->read(req.hostFd, req.data, req.len, req.offset,
                                  req.issueTime + backoff, dev.id());
        });
    hostReadCalls.inc();
    resp.status = r.status;
    resp.bytes = r.bytes;
    resp.done = chargeH2dDma(dev, r.bytes, r.done);
    return resp;
}

RpcResponse
CpuDaemon::handleReadPages(gpu::GpuDevice &dev, const RpcRequest &req)
{
    RpcResponse resp;
    if (req.pageCount == 0 || req.pageCount > kMaxBatchPages) {
        resp.status = Status::Inval;
        resp.done = req.issueTime;
        return resp;
    }

    // Victim-tier probe: serve whatever pages the tier holds at the
    // host's current version from host RAM, and read only the
    // remaining contiguous miss-runs from storage. Zero hits falls
    // through to the legacy single-vectored-read path unchanged.
    if (victim_ && req.pageLen > 0 && req.offset % req.pageLen == 0) {
        hostfs::FileInfo info;
        if (ok(fs.fstat(req.hostFd, &info))) {
            const uint64_t plen = req.pageLen;
            const uint64_t first = req.offset / plen;
            bool hit[kMaxBatchPages] = {};
            uint64_t expect[kMaxBatchPages];
            uint64_t hit_bytes = 0;
            Time vready = req.issueTime;
            unsigned hits = 0;
            for (unsigned i = 0; i < req.pageCount; ++i) {
                uint64_t off = req.offset + uint64_t(i) * plen;
                expect[i] = off < info.size
                    ? std::min<uint64_t>(plen, info.size - off) : 0;
                if (expect[i] == 0)
                    continue;
                if (victim_->probe(info.ino, first + i, info.version,
                                   req.batch[i], expect[i], &vready)) {
                    hit[i] = true;
                    hit_bytes += expect[i];
                    ++hits;
                }
            }
            if (hits > 0) {
                if (req.speculative)
                    raPagesFetched.inc(req.pageCount);
                Time done = req.issueTime;
                uint64_t total = hit_bytes;
                unsigned i = 0;
                while (i < req.pageCount) {
                    if (hit[i] || expect[i] == 0) {
                        ++i;
                        continue;
                    }
                    unsigned run = i;
                    while (run < req.pageCount && !hit[run] &&
                           expect[run] != 0) {
                        ++run;
                    }
                    hostfs::IoResult r = retryTransient(
                        fs, ioRetries, ioRetryGiveups,
                        [&](Time backoff) {
                            return backend_->readPages(
                                req.hostFd, &req.batch[i], run - i, plen,
                                req.offset + uint64_t(i) * plen,
                                req.issueTime + backoff, dev.id());
                        });
                    hostReadCalls.inc();
                    if (!ok(r.status)) {
                        resp.status = r.status;
                        resp.done = done;
                        return resp;
                    }
                    total += r.bytes;
                    done = std::max(done,
                                    chargeH2dDma(dev, r.bytes, r.done));
                    i = run;
                }
                done = std::max(done,
                                chargeVictimH2d(dev, hit_bytes, vready));
                resp.status = Status::Ok;
                resp.bytes = total;
                resp.done = done;
                return resp;
            }
        }
    }

    // Host file -> staging: ONE vectored pread for the whole extent,
    // serialized on cpuIo — the per-request CPU overhead was already
    // charged once per batch by handle(), which is the point of
    // batching (amortizing GPU->CPU request costs). The batch then
    // rides ONE DMA reservation (a single setup cost).
    if (req.speculative)
        raPagesFetched.inc(req.pageCount);
    hostfs::IoResult r = retryTransient(
        fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
            return backend_->readPages(req.hostFd, req.batch, req.pageCount,
                                       req.pageLen, req.offset,
                                       req.issueTime + backoff, dev.id());
        });
    hostReadCalls.inc();
    resp.status = r.status;
    resp.bytes = r.bytes;
    resp.done = chargeH2dDma(dev, r.bytes, r.done);
    return resp;
}

PeerPageSource *
CpuDaemon::peerSourceOf(const RpcRequest &req)
{
    if (req.peerGpu >= ports.size())
        return nullptr;
    return ports[req.peerGpu]->peerSource.load(std::memory_order_acquire);
}

Time
CpuDaemon::chargeP2pDma(gpu::GpuDevice &dev, unsigned src, unsigned dst,
                        uint64_t bytes, Time ready)
{
    auto &sim = dev.simContext();
    const auto &p = sim.params;
    bytesPeer.inc(bytes);
    if (bytes == 0 || !p.chargeDma)
        return ready;
    Time dur = p.p2pDmaSetup + transferTime(bytes, p.pcieP2PBwMBps);
    // One reservation per request on the pair's own channel: peer
    // transfers of different GPU pairs overlap instead of serializing
    // on the daemon's cpuIo path or the host PCIe links.
    return sim.p2p(src, dst).reserve(ready, dur).end;
}

RpcResponse
CpuDaemon::handlePeerReadPages(gpu::GpuDevice &dev, const RpcRequest &req)
{
    RpcResponse resp;
    if (req.pageCount == 0 || req.pageCount > kMaxBatchPages ||
        req.pageLen == 0) {
        resp.status = Status::Inval;
        resp.done = req.issueTime;
        return resp;
    }
    peerReadRpcs.inc();
    if (req.speculative)
        raPagesFetched.inc(req.pageCount);
    PeerPageSource *src = peerSourceOf(req);
    const uint64_t plen = req.pageLen;
    const Time t0 = req.issueTime;

    // First pass: serve what the owner holds. The copy itself is
    // functional (the provider pins the owner frame for its duration);
    // the virtual cost is one P2P DMA reservation covering the served
    // bytes, ready no earlier than the latest source frame's own
    // DMA-completion time.
    bool served[kMaxBatchPages] = {};
    uint32_t valid[kMaxBatchPages] = {};
    uint64_t p2p_bytes = 0;
    Time p2p_ready = t0;
    unsigned forwarded = 0;
    for (unsigned i = 0; i < req.pageCount; ++i) {
        uint64_t idx = req.offset / plen + i;
        if (src && src->peerCopyPage(req.ino, idx, req.version,
                                     req.batch[i], &valid[i],
                                     &p2p_ready)) {
            served[i] = true;
            p2p_bytes += plen;
            ++forwarded;
        }
    }

    // Victim-tier pass: pages the owner declined may still sit staged
    // in host RAM from an earlier demotion — serve those with one H2D
    // charge instead of joining the storage fallback below. Gated on
    // the host's CURRENT version like every probe.
    uint64_t vc_bytes = 0;
    Time vc_ready = t0;
    if (victim_ && req.offset % plen == 0) {
        hostfs::FileInfo vinfo;
        if (ok(fs.fstat(req.hostFd, &vinfo))) {
            for (unsigned j = 0; j < req.pageCount; ++j) {
                if (served[j])
                    continue;
                uint64_t off = req.offset + uint64_t(j) * plen;
                if (off >= vinfo.size)
                    continue;
                uint64_t expect =
                    std::min<uint64_t>(plen, vinfo.size - off);
                if (victim_->probe(vinfo.ino, off / plen, vinfo.version,
                                   req.batch[j], expect, &vc_ready)) {
                    served[j] = true;
                    valid[j] = static_cast<uint32_t>(expect);
                    vc_bytes += expect;
                }
            }
        }
    }

    // Second pass: host fallback for the runs the owner could not
    // serve — each contiguous run is one vectored pread on the
    // daemon's serialized I/O path, exactly the ReadPages charge.
    Time host_done = t0;
    uint64_t host_bytes = 0;
    unsigned i = 0;
    while (i < req.pageCount) {
        if (served[i]) {
            ++i;
            continue;
        }
        unsigned run = i;
        while (run < req.pageCount && !served[run])
            ++run;
        hostfs::IoResult r = retryTransient(
            fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                return backend_->readPages(
                    req.hostFd, &req.batch[i], run - i, plen,
                    req.offset + uint64_t(i) * plen, t0 + backoff,
                    dev.id());
            });
        if (!ok(r.status)) {
            resp.status = r.status;
            resp.done = host_done;
            return resp;
        }
        for (unsigned j = i; j < run; ++j) {
            uint64_t base = uint64_t(j - i) * plen;
            valid[j] = static_cast<uint32_t>(
                r.bytes > base ? std::min<uint64_t>(plen, r.bytes - base)
                               : 0);
        }
        // Owner warming: the fallback read these bytes BECAUSE the
        // owner was cold — adopt them into the owner's cache in the
        // same RPC (best effort: try-locks, free frames above the
        // claim reserve, the faulting tenant under its quota), so a
        // repeat miss on the page forwards peer-to-peer instead of
        // paying the storage round trip again.
        if (src) {
            for (unsigned j = i; j < run; ++j) {
                if (valid[j] == 0)
                    continue;
                if (src->peerAdoptPage(req.ino, req.offset / plen + j,
                                       req.version, req.batch[j],
                                       valid[j], r.done, req.tenant)) {
                    peerPagesAdopted.inc();
                }
            }
        }
        host_bytes += r.bytes;
        host_done = std::max(host_done, r.done);
        i = run;
    }
    peerPagesForwarded.inc(forwarded);
    peerPagesHost.inc(req.pageCount - forwarded);

    Time done = t0;
    if (host_bytes > 0)
        done = std::max(done, chargeH2dDma(dev, host_bytes, host_done));
    if (vc_bytes > 0)
        done = std::max(done, chargeVictimH2d(dev, vc_bytes, vc_ready));
    if (p2p_bytes > 0) {
        done = std::max(done, chargeP2pDma(dev, req.peerGpu, req.gpuId,
                                           p2p_bytes, p2p_ready));
    }

    // Valid bytes are contiguous from the batch start (short pages
    // only at EOF — the provider declines anything else), so a single
    // total preserves the ReadPages response contract.
    uint64_t total_valid = 0;
    for (unsigned j = 0; j < req.pageCount; ++j)
        total_valid += valid[j];
    resp.status = Status::Ok;
    resp.bytes = total_valid;
    resp.peerPages = forwarded;
    resp.done = done;
    return resp;
}

RpcResponse
CpuDaemon::handlePeerWritePages(gpu::GpuDevice &dev, const RpcRequest &req)
{
    auto &sim = dev.simContext();
    RpcResponse resp;
    if (req.pageCount == 0 || req.pageCount > kMaxBatchPages ||
        req.pageLen == 0) {
        resp.status = Status::Inval;
        resp.done = req.issueTime;
        return resp;
    }
    peerWriteRpcs.inc();
    PeerPageSource *src = peerSourceOf(req);
    const uint64_t plen = req.pageLen;

    // Host write-through FIRST: the whole batch rides ONE D2H DMA and
    // lands as ONE gathered pwritev — identical durability and version
    // semantics to plain WritePages (the PR-2 machinery above this op
    // is untouched). Mirroring happens only after the bytes are
    // durable: a failed host write must not leave the owner's cache
    // holding never-durable bytes at a still-matching version.
    uint64_t total = 0;
    for (unsigned i = 0; i < req.pageCount; ++i)
        total += req.batchLen[i];
    Time t = chargeD2hDma(dev, total, req.issueTime);

    std::vector<hostfs::WriteRun> runs;
    runs.reserve(req.pageCount);
    for (unsigned i = 0; i < req.pageCount; ++i) {
        if (req.batchLen[i] == 0)
            continue;
        runs.push_back({req.batchOff[i], req.batchLen[i], req.batch[i]});
    }
    resp.status = Status::Ok;
    resp.done = t;
    uint64_t new_version = 0;
    if (!runs.empty()) {
        bool journaled = false;
        Status js = maybeJournal(req.hostFd, runs.data(),
                                 static_cast<unsigned>(runs.size()), t,
                                 &sim.cpuIo, &journaled);
        if (!ok(js)) {
            resp.status = js;
            resp.done = t;
            return resp;
        }
        hostfs::IoResult w = retryTransient(
            fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                return backend_->writev(req.hostFd, runs.data(),
                                        static_cast<unsigned>(runs.size()),
                                        t + backoff, dev.id());
            });
        if (!ok(w.status)) {
            resp.status = w.status;
            return resp;
        }
        journalApplied(journaled);
        victimInvalidate(req.hostFd, runs.data(),
                         static_cast<unsigned>(runs.size()));
        resp.bytes = w.bytes;
        resp.version = w.version;
        resp.done = w.done;
        new_version = w.version;
    }

    // Mirror the now-durable extents into the owner's resident pages
    // (the requester's takeDirtyBatch holds the source fpage locks, so
    // the bytes are stable): the owner's copy then matches the
    // post-write host content, and later peer reads keep serving
    // current data instead of failing their version gate. The mirror
    // bytes ride the pair's P2P channel.
    unsigned mirrored = 0;
    unsigned nonzero = 0;
    uint64_t p2p_bytes = 0;
    for (unsigned i = 0; i < req.pageCount; ++i) {
        if (req.batchLen[i] == 0)
            continue;
        ++nonzero;
        uint64_t idx = req.batchOff[i] / plen;
        uint32_t in_page = static_cast<uint32_t>(req.batchOff[i] % plen);
        if (src && src->peerMirrorExtent(req.ino, idx, req.version,
                                         in_page, req.batch[i],
                                         req.batchLen[i])) {
            ++mirrored;
            p2p_bytes += req.batchLen[i];
        }
    }
    if (p2p_bytes > 0) {
        resp.done = std::max(resp.done,
                             chargeP2pDma(dev, req.gpuId, req.peerGpu,
                                          p2p_bytes, req.issueTime));
    }
    // A fully-mirrored batch leaves the owner's cache equal to the
    // post-write host content, so the owner's version advances with
    // the write instead of going stale — but only when the requester
    // marked this RPC as its write's ONLY partition (peerPublish):
    // when sibling partitions changed other pages of the same file in
    // the same flush, the owner may cache those pages too and a
    // publish would wrongly validate them.
    if (src && req.peerPublish && new_version != 0 &&
        mirrored == nonzero && nonzero > 0) {
        src->peerPublishVersion(req.ino, req.version, new_version);
    }
    peerExtentsMirrored.inc(mirrored);
    bytesFromGpu.inc(total);
    resp.peerPages = mirrored;
    return resp;
}

Time
CpuDaemon::chargeD2hDma(gpu::GpuDevice &dev, uint64_t bytes, Time ready)
{
    auto &sim = dev.simContext();
    const auto &p = sim.params;
    if (bytes == 0 || !p.chargeDma || backend_->directToGpu())
        return ready;
    Time dur = p.dmaSetup + transferTime(bytes, p.pcieBwD2HMBps);
    sim::Resource &channel =
        p.serializeDmaWithIo ? sim.cpuIo : dev.pcieD2H();
    return channel.reserve(ready, dur).end;
}

namespace {

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

} // namespace

RpcResponse
CpuDaemon::handleWriteBack(gpu::GpuDevice &dev, const RpcRequest &req)
{
    auto &sim = dev.simContext();
    RpcResponse resp;

    // GPU page -> staging: DMA on the D2H channel.
    Time t = chargeD2hDma(dev, req.len, req.issueTime);

    uint64_t written = 0;
    uint64_t version = 0;
    if (req.diffAgainstZeros) {
        // The non-zero runs land as ONE gathered pwritev: a single
        // syscall charge on the daemon's I/O path and a single version
        // bump — never per-run overhead or per-run version churn.
        std::vector<hostfs::WriteRun> runs;
        appendZeroDiffRuns(runs, req.offset, req.data, req.len);
        if (!runs.empty()) {
            bool journaled = false;
            Status js = maybeJournal(req.hostFd, runs.data(),
                                     static_cast<unsigned>(runs.size()), t,
                                     &sim.cpuIo, &journaled);
            if (!ok(js)) {
                resp.status = js;
                resp.done = t;
                return resp;
            }
            hostfs::IoResult w = retryTransient(
                fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                    return backend_->writev(
                        req.hostFd, runs.data(),
                        static_cast<unsigned>(runs.size()), t + backoff,
                        dev.id());
                });
            if (!ok(w.status)) {
                resp.status = w.status;
                resp.done = t;
                return resp;
            }
            journalApplied(journaled);
            victimInvalidate(req.hostFd, runs.data(),
                             static_cast<unsigned>(runs.size()));
            written = w.bytes;
            version = w.version;
            t = w.done;
        }
    } else {
        hostfs::WriteRun run{req.offset, req.len, req.data};
        bool journaled = false;
        Status js = maybeJournal(req.hostFd, &run, 1, t, &sim.cpuIo,
                                 &journaled);
        if (!ok(js)) {
            resp.status = js;
            resp.done = t;
            return resp;
        }
        hostfs::IoResult w = retryTransient(
            fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                return backend_->write(req.hostFd, req.data, req.len,
                                       req.offset, t + backoff, dev.id());
            });
        if (!ok(w.status)) {
            resp.status = w.status;
            resp.done = w.done;
            return resp;
        }
        journalApplied(journaled);
        victimInvalidate(req.hostFd, &run, 1);
        written = w.bytes;
        version = w.version;
        t = w.done;
    }
    bytesFromGpu.inc(req.len);
    resp.status = Status::Ok;
    resp.bytes = written;
    resp.done = t;
    // Report the post-write version so the writing GPU can keep its
    // cached version current (its own writes are not "remote" changes).
    resp.version = version;
    return resp;
}

RpcResponse
CpuDaemon::handleWritePages(gpu::GpuDevice &dev, const RpcRequest &req)
{
    auto &sim = dev.simContext();
    RpcResponse resp;
    if (req.pageCount == 0 || req.pageCount > kMaxBatchPages) {
        resp.status = Status::Inval;
        resp.done = req.issueTime;
        return resp;
    }

    // GPU pages -> staging: the whole batch rides ONE D2H DMA
    // reservation (a single setup cost) — the per-request CPU overhead
    // was already charged once per batch by handle(), which is the
    // point of batching (amortizing GPU->CPU request costs).
    uint64_t total = 0;
    for (unsigned i = 0; i < req.pageCount; ++i)
        total += req.batchLen[i];
    Time t = chargeD2hDma(dev, total, req.issueTime);

    // Every extent lands through ONE gathered pwritev: one syscall
    // charge on the daemon's serialized I/O path, one version bump —
    // the write twin of ReadPages' single vectored preadPages.
    std::vector<hostfs::WriteRun> runs;
    runs.reserve(req.pageCount);
    for (unsigned i = 0; i < req.pageCount; ++i) {
        if (req.batchLen[i] == 0)
            continue;
        if (req.diffAgainstZeros) {
            appendZeroDiffRuns(runs, req.batchOff[i], req.batch[i],
                               req.batchLen[i]);
        } else {
            runs.push_back({req.batchOff[i], req.batchLen[i],
                            req.batch[i]});
        }
    }
    resp.status = Status::Ok;
    resp.done = t;
    if (!runs.empty()) {
        bool journaled = false;
        Status js = maybeJournal(req.hostFd, runs.data(),
                                 static_cast<unsigned>(runs.size()), t,
                                 &sim.cpuIo, &journaled);
        if (!ok(js)) {
            resp.status = js;
            resp.done = t;
            return resp;
        }
        hostfs::IoResult w = retryTransient(
            fs, ioRetries, ioRetryGiveups, [&](Time backoff) {
                return backend_->writev(req.hostFd, runs.data(),
                                        static_cast<unsigned>(runs.size()),
                                        t + backoff, dev.id());
            });
        if (!ok(w.status)) {
            resp.status = w.status;
            return resp;
        }
        journalApplied(journaled);
        victimInvalidate(req.hostFd, runs.data(),
                         static_cast<unsigned>(runs.size()));
        resp.bytes = w.bytes;
        resp.version = w.version;
        resp.done = w.done;
    }
    bytesFromGpu.inc(total);
    return resp;
}

} // namespace rpc
} // namespace gpufs
