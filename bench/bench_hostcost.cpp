/**
 * @file
 * Host-cost flatness: real (host) microseconds per commit at two run
 * lengths 10x apart, measured in one process. The paper's claim is
 * that a commit costs what it dirties; on the host clock that means
 * the per-commit cost must not grow with the number of cached pages.
 *
 * Workload: 1-row Durability::Sync inserts of 100-byte values under
 * sequential keys through the direct Database API (Tuna @ 500 ns),
 * with a checkpoint after every 2,000 commits. Each run length gets a
 * fresh database:
 *
 *  - `short`: 20,000 txns; the page cache ends near 550 pages;
 *  - `long`: 200,000 txns; the page cache ends above 5,000 pages,
 *    the size of the perfbench update-zipf cache.
 *
 * A *cycle* is 2,000 commits plus their checkpoint. The figure at a
 * run length is the median host µs/commit of the run's last 10
 * cycles, i.e. the whole short run and the final 20,000 txns of the
 * long one. The long run is grown untimed to its last 10 cycles
 * first; then the two runs' measured cycles alternate, so host load
 * that comes and goes during the measurement lands on both sides.
 *
 * The `flatness` record carries the gated ratio (long / short, see
 * baselines/hostcost_bounds.json) and the long run's cache size.
 * Only host time is gated here; the sim-time figures of the same
 * commit path are gated by the Fig. 5 and async benches. `--smoke`
 * changes nothing: the run lengths are the measurement.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace nvwal;
using namespace nvwal::bench;

namespace
{

constexpr int kCycleTxns = 2000;
constexpr int kMeasuredCycles = 10;
constexpr int kShortTxns = kCycleTxns * kMeasuredCycles;
constexpr int kLongTxns = 10 * kShortTxns;

/** One run length: its own platform, database and key sequence. */
class Run
{
  public:
    Run()
        : _env(envConfig())
    {
        DbConfig config;
        config.walMode = WalMode::Nvwal;
        config.autoCheckpoint = false;
        NVWAL_CHECK_OK(Database::open(_env, config, &_db));
    }

    /** Commit one cycle; returns its host µs per commit. */
    double
    cycle()
    {
        const ByteBuffer value(100, 0x5A);
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kCycleTxns; ++i) {
            NVWAL_CHECK_OK(_db->begin());
            NVWAL_CHECK_OK(_db->insert(
                ++_key, ConstByteSpan(value.data(), value.size())));
            NVWAL_CHECK_OK(_db->commit(Durability::Sync));
        }
        NVWAL_CHECK_OK(_db->checkpoint());
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double, std::micro>(t1 - t0).count() /
               kCycleTxns;
    }

    /** Pages resident in the pager's cache. */
    std::uint64_t
    cachedPages()
    {
        Pager &pager = _db->pager();
        std::uint64_t n = 0;
        for (PageNo no = 1; no <= pager.pageCount(); ++no)
            n += pager.cached(no) != nullptr ? 1 : 0;
        return n;
    }

    std::uint64_t txns() const { return _key; }

  private:
    static EnvConfig
    envConfig()
    {
        EnvConfig c;
        c.cost = CostModel::tuna(500);
        return c;
    }

    Env _env;
    std::unique_ptr<Database> _db;
    RowId _key = 0;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

BenchRecord
lengthRecord(const char *name, Run &run, double us_per_commit)
{
    BenchRecord rec;
    rec.name = name;
    rec.params["txns"] = run.txns();
    rec.params["cycle_txns"] = kCycleTxns;
    rec.params["measured_cycles"] = kMeasuredCycles;
    rec.txnsPerSec = us_per_commit > 0.0 ? 1e6 / us_per_commit : 0.0;
    rec.values["host_us_per_commit"] = us_per_commit;
    rec.values["cached_pages"] = static_cast<double>(run.cachedPages());
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    BenchJson json("bench_hostcost", args);

    Run long_run;
    for (int t = 0; t < kLongTxns - kShortTxns; t += kCycleTxns)
        long_run.cycle();
    Run short_run;
    std::vector<double> short_us, long_us;
    for (int c = 0; c < kMeasuredCycles; ++c) {
        short_us.push_back(short_run.cycle());
        long_us.push_back(long_run.cycle());
    }
    const double short_med = median(short_us);
    const double long_med = median(long_us);
    const double ratio = short_med > 0.0 ? long_med / short_med : 0.0;

    BenchRecord short_rec = lengthRecord("short", short_run, short_med);
    BenchRecord long_rec = lengthRecord("long", long_run, long_med);
    std::printf("Host cost per 1-row Sync commit (checkpoint every %d)\n\n",
                kCycleTxns);
    TablePrinter table("bench_hostcost");
    table.setHeader({"run", "txns", "cached pages", "host us/commit"});
    for (const BenchRecord *r : {&short_rec, &long_rec}) {
        table.addRow({r->name, TablePrinter::num(r->params.at("txns")),
                      TablePrinter::num(r->values.at("cached_pages"), 0),
                      TablePrinter::num(r->values.at("host_us_per_commit"),
                                        2)});
    }
    table.print();
    std::printf("\nflatness: long / short = %.3fx (gate: <= 1.2x)\n", ratio);

    BenchRecord flat;
    flat.name = "flatness";
    flat.params["short_txns"] = kShortTxns;
    flat.params["long_txns"] = kLongTxns;
    flat.values["host_ratio"] = ratio;
    flat.values["long_cached_pages"] = long_rec.values["cached_pages"];
    json.add(std::move(short_rec));
    json.add(std::move(long_rec));
    json.add(std::move(flat));
    json.write();
    return 0;
}
