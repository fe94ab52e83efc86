/**
 * @file
 * Benchmark-owned spans around the public Database/Connection calls.
 *
 * Each span records its name, the span that caused it, the id of the
 * transaction it belongs to, and its start and end on both clocks
 * (host steady_clock and the engine's simulated clock). Spans stay in
 * memory while the workload runs and are written out once it ends;
 * self time is a span's duration minus what its child spans cover.
 * A disabled recorder reads no clock and stores nothing, so the
 * end-to-end runs pay one branch per call.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/clock.hpp"

namespace perfbench
{

enum class SpanKind : std::uint8_t
{
    WriteTxn,
    ReadTxn,
    Begin,
    Insert,
    Update,
    Get,
    Commit,
    BeginRead,
    EndRead,
    Recover,
};

const char *spanKindName(SpanKind kind);

/** Set on a Commit span whose call ran a checkpoint. */
inline constexpr std::uint8_t kSpanFlagCheckpoint = 1;
/** Set on a Commit span that returned Conflict. */
inline constexpr std::uint8_t kSpanFlagConflict = 2;

struct Span
{
    SpanKind kind;
    std::uint8_t flags;
    std::int32_t parent;       //!< index of the enclosing span, or -1
    std::uint64_t txn;
    std::int64_t hostStartNs;
    std::int64_t hostEndNs;
    std::uint64_t simStartNs;
    std::uint64_t simEndNs;

    std::int64_t hostNs() const { return hostEndNs - hostStartNs; }
    std::uint64_t simNs() const { return simEndNs - simStartNs; }
};

inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanRecorder
{
  public:
    SpanRecorder(const nvwal::SimClock &clock, bool enabled)
        : _clock(clock), _enabled(enabled)
    {
    }

    bool enabled() const { return _enabled; }

    /** Open a child of the innermost open span; -1 when disabled. */
    std::int32_t open(SpanKind kind, std::uint64_t txn);
    void close(std::int32_t index);
    /** Tag a span after the fact (e.g. a commit that checkpointed). */
    void addFlags(std::int32_t index, std::uint8_t flags);

    const std::vector<Span> &spans() const { return _spans; }

    /** Host time of each span not covered by its children. */
    std::vector<std::int64_t> selfHostNs() const;
    /** Simulated time of each span not covered by its children. */
    std::vector<std::uint64_t> selfSimNs() const;

    /** Write every span as one CSV row; false on I/O failure. */
    bool writeCsv(const std::string &path) const;

  private:
    const nvwal::SimClock &_clock;
    const bool _enabled;
    std::vector<Span> _spans;
    std::vector<std::int32_t> _stack;
};

/** Opens a span for the lifetime of the scope. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, SpanKind kind, std::uint64_t txn)
        : _rec(rec), _index(rec.open(kind, txn))
    {
    }
    ~SpanScope() { _rec.close(_index); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &_rec;
    std::int32_t _index;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
