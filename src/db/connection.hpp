/**
 * @file
 * Connection: a per-thread handle onto one Database.
 *
 * The concurrency surface of the database: any number of connections
 * may run *read transactions* concurrently, each against a consistent
 * horizon pinned at beginRead(), while write transactions commit in
 * one of two modes.
 *
 * Single-writer (the default): writers serialize on the database's
 * writer lock and are made durable through the group-commit queue --
 * concurrent committers are batched into one WAL append with a single
 * persist-barrier pair (the paper's lazy sync, stretched across
 * transactions).
 *
 * Multi-writer (DbConfig::multiWriter, DESIGN.md §13): each
 * connection owns a slot in a set of per-connection NVRAM logs and a
 * write transaction runs optimistically against a private workspace.
 * begin() pins the published epoch floor instead of a lock; commit()
 * validates the pages read against the epochs published since, and
 * returns StatusCode::Conflict -- never blocks on another writer --
 * when a page was republished. transact() wraps the
 * begin/run/commit/retry loop.
 *
 * A read transaction owns a private SnapshotCache, so repeated reads
 * touch no shared state at all. Read-only statements *outside*
 * beginRead() reuse a cached casual snapshot as long as the commit
 * horizon has not moved, so hot read loops build the cache once
 * instead of once per statement. The snapshot pin bounds
 * checkpointing: neither WAL mode advances the .db file past the
 * oldest open snapshot.
 *
 * Thread confinement: one Connection is used by one thread at a
 * time. Distinct Connections are safe to use from distinct threads
 * concurrently; that is their purpose.
 */

#ifndef NVWAL_DB_CONNECTION_HPP
#define NVWAL_DB_CONNECTION_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "db/database.hpp"
#include "db/mw_state.hpp"
#include "pager/snapshot_cache.hpp"

namespace nvwal
{

/** One client's handle onto a Database. */
class Connection
{
  public:
    /** Rolls back an open write txn and closes an open snapshot. */
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    // ---- read transactions (snapshot isolation) ---------------------

    /**
     * Open a read transaction: pin the current commit horizon (the
     * WAL commit sequence, or the published epoch floor in
     * multi-writer mode) and build a private snapshot cache over it.
     * Every read until endRead() sees exactly the transactions
     * committed before this call -- commits that land afterwards are
     * invisible, even across a crash+recovery of the writer.
     * Unsupported when the WAL mode has no snapshot support (rollback
     * journal).
     */
    Status beginRead();

    /** Close the read transaction and release the snapshot pin. */
    Status endRead();

    bool inRead() const { return _snapshot != nullptr; }

    // ---- write transactions -----------------------------------------

    /**
     * Begin a write transaction. Single-writer: blocks until the
     * writer slot is free. Multi-writer: never blocks -- pins the
     * published epoch floor and opens a private workspace; the
     * conflict, if any, surfaces at commit().
     */
    Status begin();

    /**
     * Commit the write transaction.
     *
     * options.durability -- Group (default) waits for the persist
     * barrier that hardens this commit; Async returns as soon as the
     * commit is ordered (appended and published).
     *
     * options.waitForHarden -- when true (default), an Async commit
     * still waits for its epoch to harden before returning, i.e.
     * Async orders the commit cheaply but this call is synchronous.
     * Set it false for fire-and-forget commits that harden with a
     * later barrier (see lastCommitEpoch()).
     *
     * In multi-writer mode the commit first validates the pages this
     * transaction read against the epochs published since begin();
     * on a lost race it returns StatusCode::Conflict and the
     * transaction is rolled back -- nothing was appended. Retry by
     * re-running the transaction (see transact()).
     */
    Status commit(const CommitOptions &options = {});

    /**
     * Commit at a durability level, with the pre-CommitOptions
     * calling convention: Async does not wait for the harden.
     * @deprecated Thin wrapper kept one release for existing
     * callers; use commit(const CommitOptions &).
     */
    Status commit(Durability durability);

    Status rollback();
    bool inWrite() const { return _inWrite; }

    /**
     * Run @p fn (signature Status(Connection &)) inside a write
     * transaction: begin(), fn, commit(options) -- rolling back and
     * retrying up to options.maxConflictRetries times when the
     * transaction loses an optimistic race (StatusCode::Conflict from
     * fn or from the commit). Any other failure rolls back and
     * returns immediately. Retries count under
     * "db.txn_conflict_retries".
     */
    template <typename Fn>
    Status
    transact(Fn &&fn, const CommitOptions &options = {})
    {
        int attempt = 0;
        for (;;) {
            NVWAL_RETURN_IF_ERROR(begin());
            Status s = fn(*this);
            if (s.isOk())
                s = commit(options);
            else
                (void)rollback();
            if (!s.isConflict() || attempt >= options.maxConflictRetries)
                return s;
            ++attempt;
            noteConflictRetry(attempt);
        }
    }

    /**
     * Epoch of this connection's most recent Durability::Async
     * commit (0 before any, or when the commit carried no frames).
     * Harden it explicitly with Database::waitForAsyncEpoch().
     */
    std::uint64_t lastCommitEpoch() const { return _lastCommitEpoch; }

    // ---- two-phase commit (cross-shard transactions) ----------------

    /**
     * 2PC phase 1: persist this shard's slice of cross-shard
     * transaction @p gtid as a durable, undecided PREPARE record.
     * The write transaction stays open (and this connection keeps
     * the writer slot) until decide(). NVWAL single-writer mode only.
     */
    Status prepare(std::uint64_t gtid);

    /**
     * 2PC phase 2: persist the COMMIT/ABORT decision for @p gtid and
     * close the write transaction accordingly.
     */
    Status decide(std::uint64_t gtid, bool commit);

    // ---- statements (default table) ---------------------------------
    // Reads use the open snapshot (or the cached casual one); writes
    // require an open write transaction, unless the connection was
    // opened with ConnectOptions::autoWriteTxn, in which case a
    // statement outside a transaction runs as its own transaction.

    Status insert(RowId key, ValueView value);
    Status update(RowId key, ValueView value);
    Status remove(RowId key);
    Status get(RowId key, ByteBuffer *value);
    Status scan(RowId lo, RowId hi, const BTree::ScanCallback &visit);
    Status count(std::uint64_t *out);

    // ---- introspection ----------------------------------------------

    /** Horizon of the open snapshot (0 when none / before commits). */
    CommitSeq snapshotHorizon() const { return _horizon; }

    /** Pages served from the private cache (open snapshot only). */
    std::uint64_t snapshotCacheHits() const
    { return _snapshot ? _snapshot->cacheHits() : 0; }

    /** Pages fetched through the engine (open snapshot only). */
    std::uint64_t snapshotFetches() const
    { return _snapshot ? _snapshot->fetches() : 0; }

    /** Per-connection log slot (multi-writer; 0 in single-writer). */
    std::uint32_t slot() const { return _slot; }

  private:
    friend class Database;
    explicit Connection(Database &db, ConnectOptions options = {},
                        std::uint32_t slot = 0);

    /** Root of @p table as of the active snapshot (cached). */
    Status snapshotRoot(const std::string &table, PageNo *root);

    /** Run @p op inside the open snapshot, or the casual one. */
    template <typename Op>
    Status withReadSnapshot(const Op &op);

    /** Casual-read paths (no open snapshot). */
    template <typename Op>
    Status casualReadMw(const Op &op);
    template <typename Op>
    Status casualReadSw(const Op &op);

    /** Run @p op in the open write txn, or one of its own. */
    template <typename Op>
    Status withWriteTxn(const Op &op);

    /** Rebuild bookkeeping when the casual snapshot is replaced. */
    void resetCasualSnapshot(std::unique_ptr<SnapshotCache> snap,
                             std::uint64_t horizon);

    /** Fold the casual snapshot's read tallies into the registry. */
    void foldCasualStats();

    /**
     * Count optimistic retry number @p attempt (transact()); from the
     * 4th on, back off before it is run.
     */
    void noteConflictRetry(int attempt);

    Database &_db;
    const ConnectOptions _options;
    const std::uint32_t _slot;

    /** Deferred lock on the database's writer mutex (single-writer). */
    std::unique_lock<std::mutex> _writerLock;
    bool _inWrite = false;
    std::uint64_t _lastCommitEpoch = 0;

    /** Multi-writer: the open transaction's private workspace. */
    std::unique_ptr<MwWorkspace> _ws;
    std::uint64_t _wsTxnSeq = 0;

    std::unique_ptr<SnapshotCache> _snapshot;
    CommitSeq _horizon = 0;
    /** Table roots resolved from the snapshot's catalog. */
    std::map<std::string, PageNo> _snapshotRoots;

    /**
     * Cached casual snapshot: statements outside beginRead() reuse it
     * as long as (commit horizon, engine generation) are unchanged,
     * so a hot read loop pays one cache build, not one per statement.
     */
    std::unique_ptr<SnapshotCache> _casualSnap;
    std::uint64_t _casualHorizon = 0;
    std::uint64_t _casualGen = 0;
    std::map<std::string, PageNo> _casualRoots;
    std::uint64_t _casualHitsFolded = 0;
    std::uint64_t _casualReadsFolded = 0;

    /** The snapshot/roots the current statement resolves against. */
    SnapshotCache *_activeRead = nullptr;
    std::map<std::string, PageNo> *_activeRoots = nullptr;
};

} // namespace nvwal

#endif // NVWAL_DB_CONNECTION_HPP
