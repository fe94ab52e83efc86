#include "nvram_device.hpp"

#include <algorithm>
#include <cstring>

namespace nvwal
{

NvramDevice::NvramDevice(std::size_t size, std::uint32_t cache_line_size,
                         MetricsRegistry &stats, std::uint64_t seed)
    : _durable(size, 0), _lineSize(cache_line_size), _stats(stats),
      _rng(seed)
{
    NVWAL_ASSERT(cache_line_size > 0 &&
                 (cache_line_size & (cache_line_size - 1)) == 0,
                 "cache line size must be a power of two");
    _lines.state.resize((size + cache_line_size - 1) / cache_line_size);
    _lines.index.assign(64, 0);
}

std::size_t
NvramDevice::lineSpanBytes(std::uint64_t line_idx) const
{
    const std::size_t start =
        static_cast<std::size_t>(line_idx) * _lineSize;
    NVWAL_ASSERT(start < _durable.size(), "line index out of range");
    return std::min<std::size_t>(_lineSize, _durable.size() - start);
}

std::size_t
NvramDevice::bucketOf(std::uint64_t line_idx) const
{
    // Fibonacci hashing: consecutive lines spread over the table.
    return static_cast<std::size_t>((line_idx * 0x9E3779B97F4A7C15ull) >>
                                    32) &
           (_lines.index.size() - 1);
}

std::uint32_t
NvramDevice::findSlot(std::uint64_t line_idx) const
{
    const std::size_t mask = _lines.index.size() - 1;
    for (std::size_t b = bucketOf(line_idx);; b = (b + 1) & mask) {
        const std::uint32_t entry = _lines.index[b];
        NVWAL_ASSERT(entry != 0, "active line missing from the index");
        if (_lines.slotLine[entry - 1] == line_idx)
            return entry - 1;
    }
}

void
NvramDevice::indexSlot(std::uint32_t slot)
{
    const std::size_t mask = _lines.index.size() - 1;
    std::size_t b = bucketOf(_lines.slotLine[slot]);
    while (_lines.index[b] != 0)
        b = (b + 1) & mask;
    _lines.index[b] = slot + 1;
}

std::uint32_t
NvramDevice::claimSlot(std::uint64_t line_idx)
{
    std::uint32_t slot;
    if (!_lines.freeSlots.empty()) {
        slot = _lines.freeSlots.back();
        _lines.freeSlots.pop_back();
        _lines.slotLine[slot] = line_idx;
    } else {
        slot = static_cast<std::uint32_t>(_lines.slotLine.size());
        _lines.slotLine.push_back(line_idx);
        _lines.pool.resize(cachedAt(slot + 1));
    }
    const std::size_t active =
        _lines.slotLine.size() - _lines.freeSlots.size();
    if (2 * active <= _lines.index.size()) {
        indexSlot(slot);
    } else {
        // Keep the index at most half full so probe runs stay short.
        _lines.index.assign(_lines.index.size() * 2, 0);
        for (std::uint32_t s = 0; s < _lines.slotLine.size(); ++s) {
            if (_lines.slotLine[s] != kFreeSlot)
                indexSlot(s);
        }
    }
    return slot;
}

void
NvramDevice::releaseSlot(std::uint64_t line_idx)
{
    const std::size_t mask = _lines.index.size() - 1;
    std::size_t hole = bucketOf(line_idx);
    while (_lines.slotLine[_lines.index[hole] - 1] != line_idx)
        hole = (hole + 1) & mask;
    const std::uint32_t slot = _lines.index[hole] - 1;
    _lines.slotLine[slot] = kFreeSlot;
    _lines.freeSlots.push_back(slot);
    // Backward-shift deletion: pull later entries of the probe run
    // into the hole unless their home bucket lies after it.
    for (std::size_t next = hole;;) {
        next = (next + 1) & mask;
        const std::uint32_t entry = _lines.index[next];
        if (entry == 0)
            break;
        const std::size_t home = bucketOf(_lines.slotLine[entry - 1]);
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            _lines.index[hole] = entry;
            hole = next;
        }
    }
    _lines.index[hole] = 0;
}

std::vector<std::uint64_t>
NvramDevice::cachedLines() const
{
    std::vector<std::uint64_t> out;
    out.reserve(_lines.cachedCount);
    for (std::uint64_t idx : _lines.slotLine) {
        if (idx != kFreeSlot && (_lines.state[idx] & kCached) != 0)
            out.push_back(idx);
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
NvramDevice::clearVolatile()
{
    for (std::uint64_t idx : _lines.slotLine) {
        if (idx != kFreeSlot)
            _lines.state[idx] = 0;
    }
    _lines.slotLine.clear();
    _lines.freeSlots.clear();
    _lines.pool.clear();
    std::fill(_lines.index.begin(), _lines.index.end(), 0);
    _lines.queued.clear();
    _lines.cachedCount = 0;
}

void
NvramDevice::countOp()
{
    ++_opCount;
    if (_crashAtOp != 0 && _opCount >= _crashAtOp) {
        _crashAtOp = 0;
        powerFail(_pendingPolicy, _pendingSurviveProb);
        throw PowerFailure();
    }
}

void
NvramDevice::write(NvOffset off, ConstByteSpan data)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NVWAL_ASSERT(off + data.size() <= _durable.size(),
                 "NVRAM write out of range: off=%llu len=%zu",
                 static_cast<unsigned long long>(off), data.size());
    countOp();
    std::size_t pos = 0;
    while (pos < data.size()) {
        const NvOffset addr = off + pos;
        const std::uint64_t idx = lineIndex(addr);
        const std::uint32_t in_line =
            static_cast<std::uint32_t>(addr % _lineSize);
        const std::size_t chunk =
            std::min<std::size_t>(_lineSize - in_line, data.size() - pos);

        std::uint8_t &state = _lines.state[idx];
        std::uint32_t slot;
        if ((state & kCached) != 0) {
            slot = findSlot(idx);
        } else {
            if ((state & kQueued) != 0) {
                // The persist queue holds a newer snapshot than durable.
                slot = findSlot(idx);
                std::memcpy(_lines.pool.data() + cachedAt(slot),
                            _lines.pool.data() + queuedAt(slot), _lineSize);
            } else {
                // Fill from the media. The last line of a non-line-
                // multiple device is partial; its buffer tail is zero.
                slot = claimSlot(idx);
                std::uint8_t *line = _lines.pool.data() + cachedAt(slot);
                const std::size_t span = lineSpanBytes(idx);
                std::memcpy(line, _durable.data() + idx * _lineSize, span);
                std::memset(line + span, 0, _lineSize - span);
            }
            state |= kCached;
            ++_lines.cachedCount;
        }
        std::memcpy(_lines.pool.data() + cachedAt(slot) + in_line,
                    data.data() + pos, chunk);
        pos += chunk;
    }
}

void
NvramDevice::read(NvOffset off, ByteSpan out) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NVWAL_ASSERT(off + out.size() <= _durable.size(),
                 "NVRAM read out of range");
    std::size_t pos = 0;
    while (pos < out.size()) {
        const NvOffset addr = off + pos;
        std::uint64_t idx = lineIndex(addr);
        const std::uint32_t in_line =
            static_cast<std::uint32_t>(addr % _lineSize);
        std::size_t chunk =
            std::min<std::size_t>(_lineSize - in_line, out.size() - pos);

        const std::uint8_t state = _lines.state[idx];
        if (state == 0) {
            // Extend over the run of clean lines: one copy from media.
            while (pos + chunk < out.size() && _lines.state[++idx] == 0) {
                chunk = std::min<std::size_t>(chunk + _lineSize,
                                              out.size() - pos);
            }
            std::memcpy(out.data() + pos, _durable.data() + addr, chunk);
        } else {
            // The cached copy is newer than the queued one.
            const std::uint32_t slot = findSlot(idx);
            const std::size_t at = (state & kCached) != 0 ? cachedAt(slot)
                                                          : queuedAt(slot);
            std::memcpy(out.data() + pos,
                        _lines.pool.data() + at + in_line, chunk);
        }
        pos += chunk;
    }
}

std::uint64_t
NvramDevice::readU64(NvOffset off) const
{
    std::uint8_t buf[8];
    read(off, ByteSpan(buf, 8));
    return loadU64(buf);
}

void
NvramDevice::writeU64(NvOffset off, std::uint64_t value)
{
    std::uint8_t buf[8];
    storeU64(buf, value);
    write(off, ConstByteSpan(buf, 8));
}

void
NvramDevice::flushLine(NvOffset addr)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NVWAL_ASSERT(addr < _durable.size(), "flush out of range");
    countOp();
    const std::uint64_t idx = lineIndex(addr);
    std::uint8_t &state = _lines.state[idx];
    if ((state & kCached) == 0)
        return;  // clean line: dccmvac of a clean line is a no-op
    const std::uint32_t slot = findSlot(idx);
    std::memcpy(_lines.pool.data() + queuedAt(slot),
                _lines.pool.data() + cachedAt(slot), _lineSize);
    if ((state & kQueued) == 0)
        _lines.queued.push_back(idx);
    state = kQueued;
    --_lines.cachedCount;
    _stats.add(stats::kNvramLinesFlushed);
    _stats.tracer().instant("nvram.flush_line", "nvram", "addr", addr);
}

std::size_t
NvramDevice::flushAllDirtyLines()
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    countOp();
    const std::vector<std::uint64_t> lines = cachedLines();
    for (std::uint64_t idx : lines) {
        const std::uint32_t slot = findSlot(idx);
        std::memcpy(_lines.pool.data() + queuedAt(slot),
                    _lines.pool.data() + cachedAt(slot), _lineSize);
        if ((_lines.state[idx] & kQueued) == 0)
            _lines.queued.push_back(idx);
        _lines.state[idx] = kQueued;
    }
    _lines.cachedCount = 0;
    const std::size_t n = lines.size();
    _stats.add(stats::kNvramLinesFlushed, n);
    _stats.tracer().instant("nvram.flush_all_dirty", "nvram", "lines", n);
    return n;
}

void
NvramDevice::drainPersistQueue()
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    countOp();
    const std::size_t n = _lines.queued.size();
    std::sort(_lines.queued.begin(), _lines.queued.end());
    for (std::uint64_t idx : _lines.queued) {
        const std::uint32_t slot = findSlot(idx);
        applyLineToDurable(idx, _lines.pool.data() + queuedAt(slot));
        _lines.state[idx] &= static_cast<std::uint8_t>(~kQueued);
        if (_lines.state[idx] == 0)
            releaseSlot(idx);
    }
    _lines.queued.clear();
    _stats.tracer().instant("nvram.drain_queue", "nvram", "lines", n);
}

void
NvramDevice::applyLineToDurable(std::uint64_t line_idx,
                                const std::uint8_t *data)
{
    // Clamp to the media: the last line of a non-line-multiple device
    // is partial, and copying the full line buffer would overrun the
    // durable image.
    std::memcpy(_durable.data() + line_idx * _lineSize, data,
                lineSpanBytes(line_idx));
}

void
NvramDevice::scheduleCrashAtOp(std::uint64_t op_count)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    _crashAtOp = op_count == 0 ? 0 : _opCount + op_count;
}

void
NvramDevice::powerFail(FailurePolicy policy, double survive_prob)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    // Queued, then cached lines, each in ascending line order, so the
    // adversarial draws land on the same units for the same seed.
    std::sort(_lines.queued.begin(), _lines.queued.end());
    switch (policy) {
      case FailurePolicy::Pessimistic:
        // Neither dirty cached lines nor queued-but-undrained lines
        // reach the media.
        break;

      case FailurePolicy::Adversarial:
        // Queued lines are "in flight": each 8-byte unit lands
        // independently (the paper assumes 8-byte atomic writes,
        // section 4.1, so no unit ever tears internally).
        for (std::uint64_t idx : _lines.queued) {
            const std::uint8_t *line =
                _lines.pool.data() + queuedAt(findSlot(idx));
            const std::size_t span = lineSpanBytes(idx);
            for (std::size_t unit = 0; unit < span; unit += 8) {
                if (_rng.nextBool(0.75)) {
                    std::memcpy(_durable.data() + idx * _lineSize + unit,
                                line + unit,
                                std::min<std::size_t>(8, span - unit));
                }
            }
        }
        // Dirty cached lines may have been evicted by the cache at
        // any earlier point; model that as a whole-line coin flip.
        for (std::uint64_t idx : cachedLines()) {
            if (_rng.nextBool(survive_prob))
                applyLineToDurable(
                    idx, _lines.pool.data() + cachedAt(findSlot(idx)));
        }
        break;

      case FailurePolicy::AllSurvive:
        for (std::uint64_t idx : _lines.queued)
            applyLineToDurable(
                idx, _lines.pool.data() + queuedAt(findSlot(idx)));
        for (std::uint64_t idx : cachedLines())
            applyLineToDurable(
                idx, _lines.pool.data() + cachedAt(findSlot(idx)));
        break;
    }
    clearVolatile();
    _crashAtOp = 0;
}

NvramDevice::Snapshot
NvramDevice::snapshot() const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    Snapshot snap;
    snap.durable = _durable;
    snap.lines = _lines;
    snap.opCount = _opCount;
    snap.rng = _rng;
    return snap;
}

void
NvramDevice::restore(const Snapshot &snap)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NVWAL_ASSERT(snap.durable.size() == _durable.size() &&
                 snap.lines.state.size() == _lines.state.size(),
                 "snapshot is for a different device geometry");
    _durable = snap.durable;
    _lines = snap.lines;
    _opCount = snap.opCount;
    _rng = snap.rng;
    _crashAtOp = 0;
}

void
NvramDevice::readDurable(NvOffset off, ByteSpan out) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NVWAL_ASSERT(off + out.size() <= _durable.size(),
                 "durable read out of range");
    std::memcpy(out.data(), _durable.data() + off, out.size());
}

} // namespace nvwal
