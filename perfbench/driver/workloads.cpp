#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "db/connection.hpp"
#include "db/database.hpp"
#include "spans.hpp"

namespace perfbench
{

using namespace nvwal;

namespace
{

constexpr std::size_t kValueBytes = 100;
/** User data per row is the 8-byte rowid key plus the value. */
constexpr std::size_t kKeyBytes = 8;
/**
 * insert-seq values are 100 +- this many bytes (uniform, mean 100):
 * with fixed-size sequential rows every seed would build the same
 * pages and report the same simulated times.
 */
constexpr std::size_t kInsertValueJitter = 8;
constexpr double kZipfTheta = 0.99;

// ---- insert-seq ----------------------------------------------------
constexpr std::uint64_t kInsertWarmupTxns = 4000;
constexpr std::uint64_t kInsertTimedTxns = 40000;
/** One point read after every this many inserts. */
constexpr std::uint64_t kInsertReadEvery = 16;

// ---- update-zipf ---------------------------------------------------
constexpr RowId kUpdateRows = 100000;
constexpr std::uint64_t kUpdateWarmupTxns = 2000;
constexpr std::uint64_t kUpdateTimedTxns = 24000;
constexpr int kUpdateWritesPerTxn = 4;
constexpr int kUpdateReadsPerTxn = 4;

// ---- mw-async ------------------------------------------------------
constexpr RowId kMwRows = 50000;
constexpr std::uint32_t kMwConnections = 4;
constexpr std::uint64_t kMwWarmupRounds = 100;
constexpr std::uint64_t kMwTimedRounds = 3000;
constexpr int kMwWritesPerTxn = 4;
constexpr int kMwReadsPerTxn = 4;
constexpr int kMwRetryBudget = 8;

constexpr RowId kPopulateBatch = 1000;
/** Timed txns per host-time chunk (see TrialReport::chunks). */
constexpr std::uint64_t kChunkTxns = 1000;
/**
 * Log frames written after the final checkpoint before the power cut:
 * the log that recovery replays then has the same size whatever point
 * of the checkpoint cycle the seed left the run at. Below every
 * workload's auto-checkpoint trigger.
 */
constexpr std::uint64_t kTailFrames = 600;

/**
 * The value of @p key at @p version, derived from the seed: 100 bytes,
 * or 100 +- @p jitter bytes with a size fixed per key.
 */
ByteBuffer
makeValue(std::uint64_t seed, std::size_t jitter, RowId key,
          std::uint32_t version)
{
    std::uint64_t state = seed ^ (static_cast<std::uint64_t>(key) *
                                  0x9e3779b97f4a7c15ULL);
    const std::size_t size =
        kValueBytes - jitter + splitMix64(state) % (2 * jitter + 1);
    state ^= static_cast<std::uint64_t>(version) << 40;
    ByteBuffer out(size);
    for (std::size_t i = 0; i < size; i += 8) {
        const std::uint64_t word = splitMix64(state);
        std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, size - i));
    }
    return out;
}

/**
 * YCSB-style Zipfian generator over ranks [0, n) (Gray et al.).
 * Unscrambled, rank r maps to key r + 1, so hot keys share leaves;
 * scrambled, ranks hash over the key space, spreading hot rows.
 */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double theta, bool scrambled)
        : _n(n), _scrambled(scrambled)
    {
        double zetan = 0;
        for (std::uint64_t i = 1; i <= n; ++i)
            zetan += 1.0 / std::pow(static_cast<double>(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        _zetan = zetan;
        _alpha = 1.0 / (1.0 - theta);
        _eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
        _half = std::pow(0.5, theta);
    }

    RowId
    next(Rng &rng) const
    {
        const double u = rng.nextDouble();
        const double uz = u * _zetan;
        std::uint64_t rank;
        if (uz < 1.0)
            rank = 0;
        else if (uz < 1.0 + _half)
            rank = 1;
        else
            rank = static_cast<std::uint64_t>(
                static_cast<double>(_n) *
                std::pow(_eta * u - _eta + 1.0, _alpha));
        rank = std::min(rank, _n - 1);
        if (_scrambled) {
            std::uint64_t h = rank;
            rank = splitMix64(h) % _n;
        }
        return static_cast<RowId>(rank + 1);
    }

  private:
    std::uint64_t _n;
    bool _scrambled;
    double _zetan = 0;
    double _alpha = 0;
    double _eta = 0;
    double _half = 0;
};

/** @p n distinct Zipfian keys. */
std::vector<RowId>
distinctKeys(const Zipf &zipf, Rng &rng, int n)
{
    std::vector<RowId> keys;
    while (static_cast<int>(keys.size()) < n) {
        const RowId k = zipf.next(rng);
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(k);
    }
    return keys;
}

/** @p n Zipfian keys, repeats allowed. */
std::vector<RowId>
zipfKeys(const Zipf &zipf, Rng &rng, int n)
{
    std::vector<RowId> keys;
    for (int r = 0; r < n; ++r)
        keys.push_back(zipf.next(rng));
    return keys;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest value with at least q of the sample
    // at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/** Samples a histogram gained between two copies of it. */
struct HistDelta
{
    std::vector<Histogram::Bucket> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    HistDelta(const Histogram &before, const Histogram &after)
    {
        const std::vector<Histogram::Bucket> b = before.buckets();
        std::size_t j = 0;
        for (const Histogram::Bucket &a : after.buckets()) {
            while (j < b.size() && b[j].lo < a.lo)
                ++j;
            const std::uint64_t had =
                j < b.size() && b[j].lo == a.lo ? b[j].count : 0;
            if (a.count > had) {
                buckets.push_back({a.lo, a.hi, a.count - had});
                count += a.count - had;
            }
        }
        sum = after.sum() - before.sum();
    }

    /** Bucket midpoint at quantile @p q, as Histogram::percentile. */
    double
    percentile(double q) const
    {
        if (count == 0)
            return 0;
        const auto rank = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(
                std::ceil(q * static_cast<double>(count))),
            1, count);
        std::uint64_t seen = 0;
        for (const Histogram::Bucket &bk : buckets) {
            seen += bk.count;
            if (seen >= rank)
                return static_cast<double>(bk.lo + (bk.hi - bk.lo) / 2);
        }
        return static_cast<double>(buckets.back().hi);
    }

    double mean() const { return ratio(static_cast<double>(sum),
                                       static_cast<double>(count)); }
};

/** One committed multi-writer transaction not yet known durable. */
struct PendingCommit
{
    std::uint64_t epoch;
    std::vector<std::pair<RowId, std::uint32_t>> writes;
};

const std::vector<const char *> kTrackedHistograms = {
    stats::kHistLogWriteNs, stats::kHistCommitMarkNs,
    stats::kHistCheckpointNs, stats::kHistHeapAllocNs,
    stats::kHistRecoverNs,
};

class Trial
{
  public:
    explicit Trial(const TrialOptions &options)
        : _opt(options), _rng(options.seed * 0x2545f4914f6cdd1dULL + 1)
    {
    }

    TrialReport run();

  private:
    // ---- phases ----------------------------------------------------
    void setup();
    void runTimed();
    void finish();

    void setupInsertSeq();
    void setupUpdateZipf();
    void setupMwAsync();
    void timedInsertSeq(std::uint64_t txns, bool measure);
    void timedUpdateZipf(std::uint64_t txns, bool measure);
    void timedMwAsync(std::uint64_t rounds, bool measure);

    // ---- helpers ---------------------------------------------------
    void openDatabase();
    void populate(RowId rows);
    void check(const Status &s, const char *what);
    void checkValue(RowId key, const ByteBuffer &got,
                    std::uint32_t version, const char *what);
    ByteBuffer valueFor(RowId key, std::uint32_t version) const;
    std::uint64_t checkpointsSoFar() const;
    void noteFrameIndexNodes();
    void recordTxn(bool write, std::int64_t host_ns, SimTime sim_ns);
    void readTxn(Connection &conn, const std::vector<RowId> &keys,
                 bool measure);
    void hardenPendingUpTo(std::uint64_t epoch);
    void verifyRecovered();
    void computeMetrics();

    const TrialOptions &_opt;
    Rng _rng;
    TrialReport _report;

    DbConfig _dbCfg;
    std::unique_ptr<Env> _env;
    std::unique_ptr<Database> _db;
    std::vector<std::unique_ptr<Connection>> _conns;
    std::unique_ptr<SpanRecorder> _spans;
    std::unique_ptr<Zipf> _zipf;

    /** Oracle: newest committed version per key (0 = absent). */
    std::vector<std::uint32_t> _version;
    /** Multi-writer only: versions known durable (hardened epochs),
     *  plus the committed transactions above the hardened floor. */
    std::vector<std::uint32_t> _durable;
    std::deque<PendingCommit> _pending;
    RowId _nextInsertKey = 1;
    std::size_t _valueJitter = 0;

    // ---- timed-region tallies -------------------------------------
    std::uint64_t _txnId = 0;
    std::uint64_t _writeCommits = 0;
    std::uint64_t _readTxns = 0;
    std::uint64_t _writeAttempts = 0;
    std::uint64_t _failed = 0;
    std::uint64_t _userBytesWritten = 0;
    std::vector<double> _writeHostNs, _readHostNs;
    std::vector<double> _writeSimNs, _readSimNs;
    struct HostChunk
    {
        std::vector<double> writeNs, readNs;
        std::int64_t hostNs = 0;
        std::uint64_t txns = 0;
    };
    std::vector<HostChunk> _chunks;
    std::int64_t _lastTxnEndNs = 0;
    std::uint64_t _readNvramBytes = 0;
    std::uint64_t _frameIndexPeak = 0;

    double _setupS = 0;
    SimTime _timedSimNs = 0;
    StatsSnapshot _statsBefore, _statsAfter;
    std::map<std::string, Histogram> _histBefore, _histAfter;

    // ---- end-of-run state ------------------------------------------
    std::uint64_t _heapBlocksInUse = 0;
    std::uint64_t _dbFileBytes = 0;
    std::uint64_t _dbPages = 0;
    std::uint64_t _liveUserBytes = 0;
    SimTime _recoverySimNs = 0;
    std::int64_t _recoveryHostNs = 0;
    double _recoverHistNs = 0;
};

void
Trial::check(const Status &s, const char *what)
{
    if (s.isOk())
        return;
    _report.correct = false;
    if (_report.errors.size() < 20)
        _report.errors.push_back(std::string(what) + ": " + s.toString());
}

ByteBuffer
Trial::valueFor(RowId key, std::uint32_t version) const
{
    return makeValue(_opt.seed, _valueJitter, key, version);
}

void
Trial::checkValue(RowId key, const ByteBuffer &got, std::uint32_t version,
                  const char *what)
{
    if (got == valueFor(key, version))
        return;
    _report.correct = false;
    if (_report.errors.size() < 20) {
        _report.errors.push_back(std::string(what) + ": wrong value for key " +
                                 std::to_string(key) + " (expected version " +
                                 std::to_string(version) + ")");
    }
}

std::uint64_t
Trial::checkpointsSoFar() const
{
    return _env->stats.get(stats::kCheckpoints);
}

void
Trial::noteFrameIndexNodes()
{
    _frameIndexPeak = std::max(
        _frameIndexPeak, _env->stats.gauge(stats::kWalFrameIndexNodes));
}

void
Trial::recordTxn(bool write, std::int64_t host_ns, SimTime sim_ns)
{
    (write ? _writeHostNs : _readHostNs).push_back(static_cast<double>(host_ns));
    (write ? _writeSimNs : _readSimNs).push_back(static_cast<double>(sim_ns));
    if (_chunks.empty() || _chunks.back().txns == kChunkTxns)
        _chunks.emplace_back();
    HostChunk &chunk = _chunks.back();
    (write ? chunk.writeNs : chunk.readNs).push_back(static_cast<double>(host_ns));
    ++chunk.txns;
    // The chunk owns the wall time since the previous txn ended.
    const std::int64_t now = hostNowNs();
    chunk.hostNs += now - _lastTxnEndNs;
    _lastTxnEndNs = now;
}

void
Trial::openDatabase()
{
    // Tuna board at 500 ns NVRAM write latency; engine defaults
    // otherwise (lazy sync, differential frames, user-level heap,
    // flight recorder on, auto-checkpoint at 1000 frames).
    EnvConfig env_cfg;
    env_cfg.cost = CostModel::tuna(500);
    env_cfg.seed = _opt.seed;
    _env = std::make_unique<Env>(env_cfg);
    _spans = std::make_unique<SpanRecorder>(_env->clock, false);
    check(Database::open(*_env, _dbCfg, &_db), "open");
}

void
Trial::populate(RowId rows)
{
    _version.assign(static_cast<std::size_t>(rows) + 1, 0);
    std::unique_ptr<Connection> conn;
    check(_db->connect(&conn), "connect");
    for (RowId lo = 1; lo <= rows && _report.correct; lo += kPopulateBatch) {
        const RowId hi = std::min(rows, lo + kPopulateBatch - 1);
        const Status s = conn->transact([&](Connection &c) {
            for (RowId k = lo; k <= hi; ++k)
                NVWAL_RETURN_IF_ERROR(c.insert(k, valueFor(k, 1)));
            return Status::ok();
        });
        check(s, "populate");
        for (RowId k = lo; k <= hi; ++k)
            _version[static_cast<std::size_t>(k)] = 1;
    }
    conn.reset();
    check(_db->checkpoint(), "populate checkpoint");
}

// ---- insert-seq ----------------------------------------------------

void
Trial::setupInsertSeq()
{
    _valueJitter = kInsertValueJitter;
    openDatabase();
    _conns.resize(1);
    check(_db->connect(&_conns[0]), "connect");
    // Every insert logs at least one frame, which bounds the tail.
    _version.assign(kInsertWarmupTxns + kInsertTimedTxns + kTailFrames + 1,
                    0);
    timedInsertSeq(kInsertWarmupTxns, false);
    check(_db->checkpoint(), "warm-up checkpoint");
}

void
Trial::timedInsertSeq(std::uint64_t txns, bool measure)
{
    SpanRecorder &sp = *_spans;
    const bool traced = measure && sp.enabled();
    for (std::uint64_t i = 0; i < txns && _report.correct; ++i) {
        const RowId key = _nextInsertKey++;
        const ByteBuffer value = valueFor(key, 1);
        const std::uint64_t id = ++_txnId;
        const std::uint64_t ckpt0 = traced ? checkpointsSoFar() : 0;
        const std::int64_t h0 = hostNowNs();
        const SimTime s0 = _env->clock.now();
        {
            SpanScope txn(sp, SpanKind::WriteTxn, id);
            {
                SpanScope s(sp, SpanKind::Begin, id);
                check(_db->begin(), "begin");
            }
            {
                SpanScope s(sp, SpanKind::Insert, id);
                check(_db->insert(key, value), "insert");
            }
            const std::int32_t c = sp.open(SpanKind::Commit, id);
            check(_db->commit(Durability::Sync), "commit");
            sp.close(c);
            if (traced && checkpointsSoFar() != ckpt0)
                sp.addFlags(c, kSpanFlagCheckpoint);
        }
        const std::int64_t h1 = hostNowNs();
        const SimTime s1 = _env->clock.now();
        _version[static_cast<std::size_t>(key)] = 1;
        if (!measure)
            continue;
        ++_writeAttempts;
        ++_writeCommits;
        _userBytesWritten += kKeyBytes + value.size();
        recordTxn(true, h1 - h0, s1 - s0);
        if (traced)
            noteFrameIndexNodes();

        if ((i + 1) % kInsertReadEvery != 0)
            continue;
        // A snapshot point read of a uniformly chosen earlier row.
        readTxn(*_conns[0],
                {static_cast<RowId>(
                    1 + _rng.nextBelow(static_cast<std::uint64_t>(key)))},
                measure);
    }
}

// ---- update-zipf ---------------------------------------------------

void
Trial::setupUpdateZipf()
{
    openDatabase();
    populate(kUpdateRows);
    _zipf = std::make_unique<Zipf>(kUpdateRows, kZipfTheta, false);
    _conns.resize(1);
    check(_db->connect(&_conns[0]), "connect");
    timedUpdateZipf(kUpdateWarmupTxns, false);
    check(_db->checkpoint(), "warm-up checkpoint");
}

void
Trial::readTxn(Connection &conn, const std::vector<RowId> &keys,
               bool measure)
{
    SpanRecorder &sp = *_spans;
    const bool traced = measure && sp.enabled();
    const std::uint64_t id = ++_txnId;
    std::vector<ByteBuffer> got(keys.size());
    const std::uint64_t nv0 =
        traced ? _env->stats.get(stats::kNvramBytesRead) : 0;
    const std::int64_t h0 = hostNowNs();
    const SimTime s0 = _env->clock.now();
    {
        SpanScope txn(sp, SpanKind::ReadTxn, id);
        {
            SpanScope s(sp, SpanKind::BeginRead, id);
            check(conn.beginRead(), "beginRead");
        }
        for (std::size_t r = 0; r < keys.size(); ++r) {
            SpanScope s(sp, SpanKind::Get, id);
            check(conn.get(keys[r], &got[r]), "snapshot get");
        }
        SpanScope s(sp, SpanKind::EndRead, id);
        check(conn.endRead(), "endRead");
    }
    const std::int64_t h1 = hostNowNs();
    const SimTime s1 = _env->clock.now();
    for (std::size_t r = 0; r < keys.size(); ++r)
        checkValue(keys[r], got[r], _version[static_cast<std::size_t>(keys[r])],
                   "snapshot get");
    if (!measure)
        return;
    ++_readTxns;
    recordTxn(false, h1 - h0, s1 - s0);
    if (traced)
        _readNvramBytes += _env->stats.get(stats::kNvramBytesRead) - nv0;
}

void
Trial::timedUpdateZipf(std::uint64_t txns, bool measure)
{
    SpanRecorder &sp = *_spans;
    const bool traced = measure && sp.enabled();
    Connection &conn = *_conns[0];
    for (std::uint64_t i = 0; i < txns && _report.correct; ++i) {
        if (!_rng.nextBool(0.5)) {
            readTxn(conn, zipfKeys(*_zipf, _rng, kUpdateReadsPerTxn), measure);
            continue;
        }
        // The point read draws a key the txn does not update: whether
        // a Connection read inside a write txn sees that txn's own
        // writes is left out of what this workload checks.
        std::vector<RowId> keys =
            distinctKeys(*_zipf, _rng, kUpdateWritesPerTxn + 1);
        const RowId read_key = keys.back();
        keys.pop_back();
        std::vector<ByteBuffer> values;
        for (RowId k : keys)
            values.push_back(
                valueFor(k, _version[static_cast<std::size_t>(k)] + 1));
        ByteBuffer got;
        const std::uint64_t id = ++_txnId;
        const std::uint64_t ckpt0 = traced ? checkpointsSoFar() : 0;
        const std::int64_t h0 = hostNowNs();
        const SimTime s0 = _env->clock.now();
        {
            SpanScope txn(sp, SpanKind::WriteTxn, id);
            {
                SpanScope s(sp, SpanKind::Begin, id);
                check(conn.begin(), "begin");
            }
            for (std::size_t w = 0; w < keys.size(); ++w) {
                SpanScope s(sp, SpanKind::Update, id);
                check(conn.update(keys[w], values[w]), "update");
            }
            {
                SpanScope s(sp, SpanKind::Get, id);
                check(conn.get(read_key, &got), "get");
            }
            const std::int32_t c = sp.open(SpanKind::Commit, id);
            check(conn.commit(), "commit");
            sp.close(c);
            if (traced && checkpointsSoFar() != ckpt0)
                sp.addFlags(c, kSpanFlagCheckpoint);
        }
        const std::int64_t h1 = hostNowNs();
        const SimTime s1 = _env->clock.now();
        checkValue(read_key, got, _version[static_cast<std::size_t>(read_key)],
                   "get in write txn");
        for (RowId k : keys)
            ++_version[static_cast<std::size_t>(k)];
        if (!measure)
            continue;
        ++_writeAttempts;
        ++_writeCommits;
        _userBytesWritten +=
            (kKeyBytes + kValueBytes) * keys.size();
        recordTxn(true, h1 - h0, s1 - s0);
        if (traced)
            noteFrameIndexNodes();
    }
}

// ---- mw-async ------------------------------------------------------

void
Trial::setupMwAsync()
{
    _dbCfg.multiWriter = true;
    _dbCfg.writerLogs = kMwConnections;
    openDatabase();
    populate(kMwRows);
    _durable = _version;
    _zipf = std::make_unique<Zipf>(kMwRows, kZipfTheta, true);
    _conns.resize(kMwConnections);
    for (auto &conn : _conns)
        check(_db->connect(&conn), "connect");
    timedMwAsync(kMwWarmupRounds, false);
    check(_db->checkpoint(), "warm-up checkpoint");
    hardenPendingUpTo(_db->mwHardenedEpoch());
}

void
Trial::hardenPendingUpTo(std::uint64_t epoch)
{
    while (!_pending.empty() && _pending.front().epoch <= epoch) {
        for (const auto &[key, version] : _pending.front().writes)
            _durable[static_cast<std::size_t>(key)] = version;
        _pending.pop_front();
    }
}

void
Trial::timedMwAsync(std::uint64_t rounds, bool measure)
{
    SpanRecorder &sp = *_spans;
    const bool traced = measure && sp.enabled();
    CommitOptions async;
    async.durability = Durability::Async;
    async.waitForHarden = false;

    struct Open
    {
        std::uint64_t id;
        std::vector<RowId> keys;
        std::int64_t hostStart;
        SimTime simStart;
    };

    for (std::uint64_t round = 0; round < rounds && _report.correct;
         ++round) {
        // Open every connection's transaction before committing any,
        // so transactions overlap and may conflict.
        std::vector<Open> open(_conns.size());
        auto run_body = [&](std::size_t c) {
            Connection &conn = *_conns[c];
            {
                SpanScope s(sp, SpanKind::Begin, open[c].id);
                check(conn.begin(), "begin");
            }
            for (RowId k : open[c].keys) {
                SpanScope s(sp, SpanKind::Update, open[c].id);
                check(conn.update(k, valueFor(
                                         k, _version[static_cast<std::size_t>(
                                                k)] + 1)),
                      "update");
            }
        };
        for (std::size_t c = 0; c < _conns.size(); ++c) {
            open[c].id = ++_txnId;
            open[c].keys = distinctKeys(*_zipf, _rng, kMwWritesPerTxn);
            open[c].hostStart = hostNowNs();
            open[c].simStart = _env->clock.now();
            SpanScope txn(sp, SpanKind::WriteTxn, open[c].id);
            run_body(c);
        }
        for (std::size_t c = 0; c < _conns.size(); ++c) {
            Connection &conn = *_conns[c];
            bool committed = false;
            int attempts = 0;
            {
                SpanScope txn(sp, SpanKind::WriteTxn, open[c].id);
                for (;;) {
                    ++attempts;
                    const std::uint64_t ckpt0 =
                        traced ? checkpointsSoFar() : 0;
                    const std::int32_t span = sp.open(SpanKind::Commit,
                                                      open[c].id);
                    const Status s = conn.commit(async);
                    sp.close(span);
                    if (traced && checkpointsSoFar() != ckpt0)
                        sp.addFlags(span, kSpanFlagCheckpoint);
                    if (s.isOk()) {
                        committed = true;
                        break;
                    }
                    if (!s.isConflict()) {
                        check(s, "commit");
                        break;
                    }
                    if (traced)
                        sp.addFlags(span, kSpanFlagConflict);
                    if (attempts > kMwRetryBudget)
                        break;
                    // Re-run the transaction body against the newer
                    // published state.
                    run_body(c);
                }
            }
            const std::int64_t h1 = hostNowNs();
            const SimTime s1 = _env->clock.now();
            if (committed) {
                PendingCommit pc{conn.lastCommitEpoch(), {}};
                for (RowId k : open[c].keys) {
                    const auto v = ++_version[static_cast<std::size_t>(k)];
                    pc.writes.emplace_back(k, v);
                }
                _pending.push_back(std::move(pc));
            }
            if (!measure)
                continue;
            _writeAttempts += static_cast<std::uint64_t>(attempts);
            if (!committed) {
                ++_failed;
                continue;
            }
            ++_writeCommits;
            _userBytesWritten +=
                (kKeyBytes + kValueBytes) * open[c].keys.size();
            recordTxn(true, h1 - open[c].hostStart, s1 - open[c].simStart);
            if (traced)
                noteFrameIndexNodes();
        }
        readTxn(*_conns[round % _conns.size()],
                zipfKeys(*_zipf, _rng, kMwReadsPerTxn), measure);
        hardenPendingUpTo(_db->mwHardenedEpoch());
    }
}

// ---- trial phases --------------------------------------------------

void
Trial::setup()
{
    const std::int64_t h0 = hostNowNs();
    if (_opt.workload == "insert-seq")
        setupInsertSeq();
    else if (_opt.workload == "update-zipf")
        setupUpdateZipf();
    else
        setupMwAsync();
    _setupS = static_cast<double>(hostNowNs() - h0) / 1e9;
}

void
Trial::runTimed()
{
    _spans = std::make_unique<SpanRecorder>(_env->clock, _opt.traced);
    _statsBefore = _env->stats.snapshot();
    for (const char *name : kTrackedHistograms)
        _histBefore[name] = _env->stats.histogram(name);
    const SimTime s0 = _env->clock.now();
    _lastTxnEndNs = hostNowNs();
    if (_opt.workload == "insert-seq")
        timedInsertSeq(kInsertTimedTxns, true);
    else if (_opt.workload == "update-zipf")
        timedUpdateZipf(kUpdateTimedTxns, true);
    else
        timedMwAsync(kMwTimedRounds, true);
    _timedSimNs = _env->clock.now() - s0;
    _statsAfter = _env->stats.snapshot();
    for (const char *name : kTrackedHistograms)
        _histAfter[name] = _env->stats.histogram(name);

    // Untimed tail, see kTailFrames. Every step logs at least one
    // frame, so the step cap only matters if a checkpoint intervenes.
    check(_db->checkpoint(), "tail checkpoint");
    for (std::uint64_t step = 0; step < kTailFrames && _report.correct &&
                                 _db->walFramesSinceCheckpoint() < kTailFrames;
         ++step) {
        if (_opt.workload == "insert-seq")
            timedInsertSeq(1, false);
        else if (_opt.workload == "update-zipf")
            timedUpdateZipf(1, false);
        else
            timedMwAsync(1, false);
    }
}

void
Trial::finish()
{
    _heapBlocksInUse = _env->heap.countBlocks(BlockState::InUse);
    _dbFileBytes = _env->fs.allocatedSize(_dbCfg.name);
    // The multi-writer engine keeps pages in its own overlay, not the
    // pager, so also count the .db file.
    _dbPages = std::max<std::uint64_t>(
        _db->pager().pageCount(),
        _env->fs.fileSize(_dbCfg.name) / _dbCfg.pageSize);

    // Acknowledged multi-writer commits are those whose epoch had
    // hardened when the power went.
    if (_dbCfg.multiWriter)
        hardenPendingUpTo(_db->mwHardenedEpoch());

    _conns.clear();
    _env->powerFail(FailurePolicy::Pessimistic);
    const Histogram recover_before =
        _env->stats.histogram(stats::kHistRecoverNs);
    const std::int64_t h0 = hostNowNs();
    const SimTime s0 = _env->clock.now();
    Status s;
    {
        SpanScope span(*_spans, SpanKind::Recover, 0);
        s = Database::recoverAfterCrash(*_env, _dbCfg, &_db);
    }
    _recoveryHostNs = hostNowNs() - h0;
    _recoverySimNs = _env->clock.now() - s0;
    _recoverHistNs = static_cast<double>(
        HistDelta(recover_before,
                  _env->stats.histogram(stats::kHistRecoverNs))
            .sum);
    check(s, "recoverAfterCrash");
    if (!s.isOk())
        return;
    check(_db->verifyIntegrity(), "verifyIntegrity");
    verifyRecovered();
}

void
Trial::verifyRecovered()
{
    std::map<RowId, ByteBuffer> rows;
    check(_db->scan(1, std::numeric_limits<RowId>::max(),
                    [&](RowId key, ConstByteSpan value) {
                        rows.emplace(key, ByteBuffer(value.begin(),
                                                     value.end()));
                        return true;
                    }),
          "scan after recovery");

    const std::vector<std::uint32_t> &base =
        _dbCfg.multiWriter ? _durable : _version;
    // Expected state after the first @p prefix commits above the
    // hardened floor also survived (single-writer: no such commits).
    auto mismatches = [&](std::size_t prefix) {
        std::vector<std::uint32_t> expect = base;
        for (std::size_t i = 0; i < prefix; ++i) {
            for (const auto &[key, version] : _pending[i].writes)
                expect[static_cast<std::size_t>(key)] = version;
        }
        std::uint64_t bad = 0;
        std::uint64_t live = 0;
        for (std::size_t key = 1; key < expect.size(); ++key) {
            if (expect[key] == 0)
                continue;
            ++live;
            auto it = rows.find(static_cast<RowId>(key));
            if (it == rows.end() ||
                it->second != valueFor(static_cast<RowId>(key), expect[key]))
                ++bad;
        }
        bad += rows.size() > live ? rows.size() - live : 0;
        return std::make_pair(bad, live);
    };
    for (std::size_t prefix = _pending.size() + 1; prefix-- > 0;) {
        const auto [bad, live] = mismatches(prefix);
        if (bad == 0) {
            for (const auto &[key, value] : rows)
                _liveUserBytes += kKeyBytes + value.size();
            return;
        }
        if (prefix == 0) {
            _report.correct = false;
            _report.errors.push_back(
                std::to_string(bad) +
                " lost or wrong rows after recovery (of " +
                std::to_string(live) + " acknowledged)");
        }
    }
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void
Trial::computeMetrics()
{
    const StatsSnapshot d = MetricsRegistry::delta(_statsBefore, _statsAfter);
    auto c = [&](const char *name) {
        auto it = d.find(name);
        return it == d.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto hist = [&](const char *name) {
        return HistDelta(_histBefore.at(name), _histAfter.at(name));
    };
    const double writes = static_cast<double>(_writeCommits);
    const double txns = static_cast<double>(_writeCommits + _readTxns);
    const double sim_s = static_cast<double>(_timedSimNs) / 1e9;
    auto &ex = _report.exact;
    auto &ho = _report.host;

    _report.attempted = _writeCommits + _readTxns + _failed;
    _report.failed = _failed;

    // ---- end to end ------------------------------------------------
    ex["sim_txn_per_s"] = ratio(txns, sim_s);
    ex["sim_write_p50_us"] = percentile(_writeSimNs, 0.5) / 1e3;
    ex["sim_write_p999_us"] = percentile(_writeSimNs, 0.999) / 1e3;
    // A mean, not a median: the modelled cost of a read takes a few
    // discrete values, so its median sits on one of them for every
    // seed and hides any change smaller than a step.
    ex["sim_read_mean_us"] = mean(_readSimNs) / 1e3;
    ex["recovery_sim_ms"] = static_cast<double>(_recoverySimNs) / 1e6;
    ex["bytes_stored_per_user_byte"] = ratio(
        static_cast<double>(_heapBlocksInUse * _env->heap.blockSize() +
                            _dbFileBytes),
        static_cast<double>(_liveUserBytes));
    ex["committed_txn_frac"] = ratio(txns, static_cast<double>(
                                               _report.attempted));
    ex["write_samples"] = writes;
    ho["peak_rss_mb"] = peakRssMb();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const HostChunk &chunk : _chunks) {
        auto &out = _report.chunks;
        out["txns"].push_back(static_cast<double>(chunk.txns));
        out["seconds"].push_back(static_cast<double>(chunk.hostNs) / 1e9);
        out["write_p50_us"].push_back(
            chunk.writeNs.empty() ? nan : percentile(chunk.writeNs, 0.5) / 1e3);
        out["read_p50_us"].push_back(
            chunk.readNs.empty() ? nan : percentile(chunk.readNs, 0.5) / 1e3);
    }
    ho["setup_s"] = _setupS;

    if (!_opt.traced)
        return;

    // ---- per layer: engine counters over the timed region ---------
    ex["db.attempts_per_commit"] =
        ratio(static_cast<double>(_writeAttempts), writes);
    ex["db.checkpoints_per_ktxn"] =
        ratio(1000.0 * c(stats::kCheckpoints), writes);
    ex["db.group_commits_per_txn"] = ratio(c(stats::kGroupCommits), writes);
    ex["fr.records_per_txn"] = ratio(c(stats::kFrRecordsWritten), writes);

    const double time_ns = c(stats::kTimeMemcpyNs) + c(stats::kTimeFlushNs) +
                           c(stats::kTimeBarrierNs) + c(stats::kTimePersistNs) +
                           c(stats::kTimeSyscallNs) + c(stats::kTimeHeapNs);
    ex["sim.clock_ns_per_txn"] = ratio(static_cast<double>(_timedSimNs), txns);
    ex["sim.unattributed_ns_per_txn"] =
        ratio(static_cast<double>(_timedSimNs) - time_ns, txns);
    ex["sim.wal_heap_hist_ns_per_txn"] =
        ratio(static_cast<double>(
                  hist(stats::kHistLogWriteNs).sum +
                  hist(stats::kHistCommitMarkNs).sum +
                  hist(stats::kHistCheckpointNs).sum +
                  hist(stats::kHistHeapAllocNs).sum),
              txns);

    const double snap_fetches =
        c(stats::kSnapshotReads) - c(stats::kSnapshotCacheHits);
    ex["pager.hit_ratio"] = ratio(
        c(stats::kPagerCacheHits) + c(stats::kSnapshotCacheHits),
        c(stats::kPagerCacheHits) + c(stats::kPagerReads) +
            c(stats::kSnapshotReads));
    ex["pager.page_reads_per_txn"] =
        ratio(c(stats::kPagerReads) + snap_fetches, txns);
    ex["pager.wal_reads_per_txn"] = ratio(c(stats::kPagerWalReads), txns);
    ex["pager.db_pages"] = static_cast<double>(_dbPages);
    ex["pager.dirty_pages_per_txn"] =
        ratio(c(stats::kNvramFramesWritten), writes);

    ex["core.log_bytes_per_user_byte"] =
        ratio(c(stats::kNvramBytesLogged),
              static_cast<double>(_userBytesWritten));
    ex["core.diff_frames_per_txn"] = ratio(c(stats::kWalDiffFrames), writes);
    ex["core.full_frames_per_txn"] = ratio(
        c(stats::kNvramFramesWritten) - c(stats::kWalDiffFrames), writes);
    const double mat = c(stats::kWalMaterializeCacheHits) +
                       c(stats::kWalMaterializeCacheMisses);
    ex["core.materialize_hit_ratio"] =
        ratio(c(stats::kWalMaterializeCacheHits), mat);
    ex["core.scan_steps_per_wal_read"] =
        ratio(c(stats::kWalFrameScanSteps), mat);
    ex["core.bump_alloc_ratio"] =
        ratio(c(stats::kWalBumpAllocs),
              c(stats::kWalBumpAllocs) + c(stats::kWalNodeAllocs));
    ex["core.log_write_sim_us"] =
        hist(stats::kHistLogWriteNs).percentile(0.5) / 1e3;
    ex["core.commit_mark_sim_us"] =
        hist(stats::kHistCommitMarkNs).percentile(0.5) / 1e3;
    ex["core.checkpoint_sim_ms"] = hist(stats::kHistCheckpointNs).mean() / 1e6;
    ex["core.ckpt_pages_per_checkpoint"] =
        ratio(c(stats::kWalCkptPagesWritten), c(stats::kCheckpoints));
    ex["core.ckpt_sequential_ratio"] =
        ratio(c(stats::kWalCkptSequentialWrites),
              c(stats::kWalCkptPagesWritten));
    ex["core.frame_index_nodes_peak"] = static_cast<double>(_frameIndexPeak);
    ex["core.harden_batches_per_txn"] =
        ratio(c(stats::kWalHardenBatches), writes);
    ex["core.mw_hardens_per_txn"] = ratio(c(stats::kWalMwHardens), writes);
    ex["core.log_conflicts_per_txn"] =
        ratio(c(stats::kWalLogConflicts), writes);
    ex["core.recover_sim_ms"] = _recoverHistNs / 1e6;

    ex["heap.manager_calls_per_txn"] = ratio(c(stats::kHeapCalls), writes);
    ex["heap.alloc_sim_us"] =
        hist(stats::kHistHeapAllocNs).percentile(0.5) / 1e3;
    ex["heap.sim_ns_per_txn"] = ratio(c(stats::kTimeHeapNs), writes);
    ex["heap.blocks_in_use"] = static_cast<double>(_heapBlocksInUse);

    ex["pmem.persist_barriers_per_txn"] =
        ratio(c(stats::kPersistBarriers), writes);
    ex["pmem.memory_barriers_per_txn"] =
        ratio(c(stats::kMemoryBarriers), writes);
    ex["pmem.flush_syscalls_per_txn"] = ratio(c(stats::kFlushSyscalls), writes);
    ex["pmem.flush_lines_deduped_per_txn"] =
        ratio(c(stats::kPmemFlushLinesDeduped), writes);
    ex["pmem.memcpy_sim_ns_per_txn"] = ratio(c(stats::kTimeMemcpyNs), writes);
    ex["pmem.flush_sim_ns_per_txn"] = ratio(c(stats::kTimeFlushNs), writes);
    ex["pmem.barrier_sim_ns_per_txn"] = ratio(c(stats::kTimeBarrierNs), writes);
    ex["pmem.persist_sim_ns_per_txn"] = ratio(c(stats::kTimePersistNs), writes);
    ex["pmem.syscall_sim_ns_per_txn"] = ratio(c(stats::kTimeSyscallNs), writes);

    ex["nvram.lines_flushed_per_txn"] =
        ratio(c(stats::kNvramLinesFlushed), writes);
    ex["nvram.bytes_read_per_read_txn"] =
        ratio(static_cast<double>(_readNvramBytes),
              static_cast<double>(_readTxns));

    ex["blockdev.blocks_written_per_checkpoint"] =
        ratio(c(stats::kBlocksWritten), c(stats::kCheckpoints));
    ex["blockdev.blocks_read_per_txn"] = ratio(c(stats::kBlocksRead), txns);
    ex["fs.fsyncs_per_checkpoint"] =
        ratio(c(stats::kFsyncs), c(stats::kCheckpoints));
    ex["fs.journal_blocks_per_checkpoint"] =
        ratio(c(stats::kJournalBlocksWritten), c(stats::kCheckpoints));

    // ---- per layer: benchmark spans --------------------------------
    const std::vector<Span> &spans = _spans->spans();
    const std::vector<std::int64_t> self = _spans->selfHostNs();
    double stmt_ns = 0, snapshot_ns = 0;
    std::vector<double> commit_ns, ckpt_host_ns, ckpt_sim_ns, get_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const SpanKind txn_kind =
            s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].kind
                          : s.kind;
        const auto host = static_cast<double>(self[i]);
        switch (s.kind) {
          case SpanKind::Insert:
          case SpanKind::Update:
            stmt_ns += host;
            break;
          case SpanKind::Get:
            if (txn_kind == SpanKind::WriteTxn)
                stmt_ns += host;
            else
                get_ns.push_back(host);
            break;
          case SpanKind::BeginRead:
          case SpanKind::EndRead:
            snapshot_ns += host;
            break;
          case SpanKind::Commit:
            if (s.flags & kSpanFlagCheckpoint) {
                ckpt_host_ns.push_back(host);
                ckpt_sim_ns.push_back(static_cast<double>(s.simNs()));
            } else {
                commit_ns.push_back(host);
            }
            break;
          default:
            break;
        }
    }
    ho["db.stmt.host_us"] = ratio(stmt_ns, writes) / 1e3;
    ho["db.commit.host_us"] = mean(commit_ns) / 1e3;
    ho["db.commit_ckpt.host_us"] = mean(ckpt_host_ns) / 1e3;
    ex["db.commit_ckpt.sim_us"] = mean(ckpt_sim_ns) / 1e3;
    ho["db.snapshot.host_us"] =
        ratio(snapshot_ns, static_cast<double>(_readTxns)) / 1e3;
    ho["db.get.host_us"] = mean(get_ns) / 1e3;
    ho["db.recover.host_ms"] = static_cast<double>(_recoveryHostNs) / 1e6;
    ho["db.write_txn.host_p99_us"] = percentile(_writeHostNs, 0.99) / 1e3;
    ho["db.write_txn.host_p999_us"] = percentile(_writeHostNs, 0.999) / 1e3;
}

TrialReport
Trial::run()
{
    setup();
    if (_report.correct) {
        runTimed();
        finish();
        computeMetrics();
    }
    if (_opt.traced && !_opt.spansOut.empty() &&
        !_spans->writeCsv(_opt.spansOut)) {
        _report.correct = false;
        _report.errors.push_back("cannot write spans to " + _opt.spansOut);
    }
    return _report;
}

} // namespace

TrialReport
runTrial(const TrialOptions &options)
{
    static const std::vector<std::string> names = {"insert-seq",
                                                   "update-zipf", "mw-async"};
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end()) {
        TrialReport report;
        report.correct = false;
        report.errors.push_back("unknown workload: " + options.workload);
        return report;
    }
    Trial trial(options);
    return trial.run();
}

} // namespace perfbench
