/**
 * @file
 * Unit tests for the NVRAM device model: cache/queue/durable state
 * separation, flush snapshot semantics, power-failure policies and
 * torn-write behaviour.
 */

#include <gtest/gtest.h>

#include <map>

#include "nvram/nvram_device.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

class NvramDeviceTest : public ::testing::Test
{
  protected:
    MetricsRegistry stats;
    NvramDevice dev{1 << 16, 64, stats, 99};
};

TEST_F(NvramDeviceTest, WriteIsVisibleToReadsImmediately)
{
    const ByteBuffer data = testutil::makeValue(100, 1);
    dev.write(1000, testutil::spanOf(data));
    ByteBuffer out(100);
    dev.read(1000, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST_F(NvramDeviceTest, UnflushedWritesAreNotDurable)
{
    const ByteBuffer data = testutil::makeValue(64, 2);
    dev.write(0, testutil::spanOf(data));
    ByteBuffer out(64);
    dev.readDurable(0, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, ByteBuffer(64, 0));
    EXPECT_EQ(dev.dirtyLineCount(), 1u);
}

TEST_F(NvramDeviceTest, FlushAloneIsNotDurable)
{
    const ByteBuffer data = testutil::makeValue(64, 3);
    dev.write(128, testutil::spanOf(data));
    dev.flushLine(128);
    EXPECT_EQ(dev.queuedLineCount(), 1u);
    ByteBuffer out(64);
    dev.readDurable(128, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, ByteBuffer(64, 0));  // still queued, not on media
}

TEST_F(NvramDeviceTest, FlushPlusDrainIsDurable)
{
    const ByteBuffer data = testutil::makeValue(64, 4);
    dev.write(192, testutil::spanOf(data));
    dev.flushLine(192);
    dev.drainPersistQueue();
    ByteBuffer out(64);
    dev.readDurable(192, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, data);
    EXPECT_EQ(dev.dirtyLineCount(), 0u);
    EXPECT_EQ(dev.queuedLineCount(), 0u);
}

TEST_F(NvramDeviceTest, FlushSnapshotsLineContent)
{
    // Stores after the flush must not ride along with it.
    ByteBuffer first(64, 0x11);
    dev.write(256, testutil::spanOf(first));
    dev.flushLine(256);
    ByteBuffer second(64, 0x22);
    dev.write(256, testutil::spanOf(second));
    dev.drainPersistQueue();
    ByteBuffer out(64);
    dev.readDurable(256, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, first);
    // The coherent view still sees the newest store.
    dev.read(256, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, second);
}

TEST_F(NvramDeviceTest, FlushOfCleanLineIsNoop)
{
    dev.flushLine(512);
    EXPECT_EQ(dev.queuedLineCount(), 0u);
    EXPECT_EQ(stats.get(stats::kNvramLinesFlushed), 0u);
}

TEST_F(NvramDeviceTest, ReadSeesQueueUnderCleanCache)
{
    // Flush moves the line out of the cache; reads must still see
    // the queued (newest) content, not stale durable bytes.
    ByteBuffer data(64, 0x33);
    dev.write(320, testutil::spanOf(data));
    dev.flushLine(320);
    ByteBuffer out(64);
    dev.read(320, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST_F(NvramDeviceTest, WriteSpanningLinesDirtiesEachLine)
{
    const ByteBuffer data = testutil::makeValue(200, 5);
    dev.write(60, testutil::spanOf(data));  // spans lines 0..4
    EXPECT_EQ(dev.dirtyLineCount(), 5u);
    ByteBuffer out(200);
    dev.read(60, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST_F(NvramDeviceTest, PessimisticPowerFailureDropsEverythingVolatile)
{
    const ByteBuffer data = testutil::makeValue(64, 6);
    dev.write(0, testutil::spanOf(data));
    dev.write(64, testutil::spanOf(data));
    dev.flushLine(64);  // queued, not drained
    dev.powerFail(FailurePolicy::Pessimistic);
    ByteBuffer out(64);
    dev.read(0, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, ByteBuffer(64, 0));
    dev.read(64, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, ByteBuffer(64, 0));
}

TEST_F(NvramDeviceTest, AllSurvivePolicyKeepsCacheAndQueue)
{
    const ByteBuffer a = testutil::makeValue(64, 7);
    const ByteBuffer b = testutil::makeValue(64, 8);
    dev.write(0, testutil::spanOf(a));
    dev.flushLine(0);
    dev.write(64, testutil::spanOf(b));
    dev.powerFail(FailurePolicy::AllSurvive);
    ByteBuffer out(64);
    dev.read(0, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, a);
    dev.read(64, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, b);
}

TEST_F(NvramDeviceTest, AdversarialTearsOnlyAtEightByteUnits)
{
    // A queued line survives per 8-byte unit: after the crash every
    // aligned 8-byte unit equals either the old or the new value.
    ByteBuffer old_data(64, 0x00);
    ByteBuffer new_data(64, 0xFF);
    dev.write(0, testutil::spanOf(old_data));
    dev.flushLine(0);
    dev.drainPersistQueue();  // old data durable

    dev.write(0, testutil::spanOf(new_data));
    dev.flushLine(0);  // new data queued
    dev.powerFail(FailurePolicy::Adversarial, 0.5);

    ByteBuffer out(64);
    dev.read(0, ByteSpan(out.data(), out.size()));
    for (std::size_t unit = 0; unit < 64; unit += 8) {
        bool all_old = true;
        bool all_new = true;
        for (std::size_t i = unit; i < unit + 8; ++i) {
            all_old = all_old && out[i] == 0x00;
            all_new = all_new && out[i] == 0xFF;
        }
        EXPECT_TRUE(all_old || all_new)
            << "unit " << unit << " tore within 8 bytes";
    }
}

TEST_F(NvramDeviceTest, AdversarialDirtyLinesSurviveProbabilistically)
{
    // With survive probability 1.0 every dirty line must land.
    MetricsRegistry s2;
    NvramDevice d2(1 << 16, 64, s2, 5);
    ByteBuffer data(64, 0x7A);
    d2.write(0, testutil::spanOf(data));
    d2.powerFail(FailurePolicy::Adversarial, 1.0);
    ByteBuffer out(64);
    d2.read(0, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, data);

    // With survive probability 0.0 no dirty line may land.
    NvramDevice d3(1 << 16, 64, s2, 6);
    d3.write(0, testutil::spanOf(data));
    d3.powerFail(FailurePolicy::Adversarial, 0.0);
    d3.read(0, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, ByteBuffer(64, 0));
}

TEST_F(NvramDeviceTest, ScheduledCrashFiresAtExactOp)
{
    ByteBuffer data(8, 0x01);
    dev.scheduleCrashAtOp(3);
    dev.write(0, testutil::spanOf(data));   // op 1
    dev.write(8, testutil::spanOf(data));   // op 2
    EXPECT_THROW(dev.write(16, testutil::spanOf(data)), PowerFailure);
    // After the crash the device keeps working (reboot semantics).
    dev.write(24, testutil::spanOf(data));
    EXPECT_EQ(dev.dirtyLineCount(), 1u);
}

TEST_F(NvramDeviceTest, ScheduleCancelledByZero)
{
    dev.scheduleCrashAtOp(1);
    dev.scheduleCrashAtOp(0);
    ByteBuffer data(8, 0x02);
    EXPECT_NO_THROW(dev.write(0, testutil::spanOf(data)));
}

TEST_F(NvramDeviceTest, U64Helpers)
{
    dev.writeU64(800, 0x1122334455667788ull);
    EXPECT_EQ(dev.readU64(800), 0x1122334455667788ull);
}

TEST_F(NvramDeviceTest, FlushCountsLines)
{
    ByteBuffer data(256, 0xCD);
    dev.write(0, testutil::spanOf(data));
    for (NvOffset a = 0; a < 256; a += 64)
        dev.flushLine(a);
    EXPECT_EQ(stats.get(stats::kNvramLinesFlushed), 4u);
}

TEST(NvramTailLine, PartialTailLineIsClampedNotOverrun)
{
    // Regression: a device whose size is not a multiple of the line
    // size has a partial tail line; applyLineToDurable() used to copy
    // the full line buffer, writing past the end of the durable
    // image. 100-byte device, 64-byte lines: the tail line holds
    // bytes 64..99 only.
    MetricsRegistry stats;
    NvramDevice d(100, 64, stats, 1);
    ByteBuffer data(36, 0x5C);
    d.write(64, testutil::spanOf(data));
    d.flushLine(64);
    d.drainPersistQueue();
    ByteBuffer out(36);
    d.readDurable(64, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST(NvramTailLine, AdversarialCrashOverPartialTailLine)
{
    // The torn-write model must hold on the clamped tail too: every
    // (possibly clipped) 8-byte unit is all-old or all-new, and the
    // copy never overruns the media.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        MetricsRegistry stats;
        NvramDevice d(100, 64, stats, seed);
        ByteBuffer old_data(36, 0x11);
        d.write(64, testutil::spanOf(old_data));
        d.flushLine(64);
        d.drainPersistQueue();
        ByteBuffer new_data(36, 0xEE);
        d.write(64, testutil::spanOf(new_data));
        d.flushLine(64);
        d.powerFail(FailurePolicy::Adversarial, 0.5);

        ByteBuffer out(36);
        d.read(64, ByteSpan(out.data(), out.size()));
        for (std::size_t unit = 0; unit < 36; unit += 8) {
            const std::size_t end = std::min<std::size_t>(unit + 8, 36);
            bool all_old = true;
            bool all_new = true;
            for (std::size_t i = unit; i < end; ++i) {
                all_old = all_old && out[i] == 0x11;
                all_new = all_new && out[i] == 0xEE;
            }
            EXPECT_TRUE(all_old || all_new)
                << "seed " << seed << " unit " << unit;
        }
    }
}

TEST_F(NvramDeviceTest, SnapshotRestoreRoundTrip)
{
    // The crash-sweep harness restores one snapshot hundreds of
    // times; all three state layers must round-trip exactly and a
    // pending scheduled crash must not leak across the restore.
    ByteBuffer a(64, 0xA1);
    ByteBuffer b(64, 0xB2);
    ByteBuffer c(64, 0xC3);
    dev.write(0, testutil::spanOf(a));
    dev.flushLine(0);
    dev.drainPersistQueue();              // A durable
    dev.write(64, testutil::spanOf(b));
    dev.flushLine(64);                    // B queued
    dev.write(128, testutil::spanOf(c));  // C cached only

    const NvramDevice::Snapshot snap = dev.snapshot();

    ByteBuffer junk(64, 0x00);
    dev.write(0, testutil::spanOf(junk));
    dev.write(64, testutil::spanOf(junk));
    dev.write(128, testutil::spanOf(junk));
    dev.flushAllDirtyLines();
    dev.drainPersistQueue();
    dev.scheduleCrashAtOp(1000);

    dev.restore(snap);
    ByteBuffer out(64);
    dev.readDurable(0, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, a);
    dev.read(64, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, b);
    dev.read(128, ByteSpan(out.data(), out.size()));
    EXPECT_EQ(out, c);
    EXPECT_EQ(dev.queuedLineCount(), 1u);  // B
    EXPECT_EQ(dev.dirtyLineCount(), 1u);   // C

    // restore() cancels the scheduled crash: far more than 1000 ops
    // must now pass without a PowerFailure.
    ByteBuffer probe(8, 0x01);
    for (int i = 0; i < 1200; ++i)
        dev.write(512, testutil::spanOf(probe));
}

/**
 * Reference model of the device's three storage layers: plain maps
 * from line index to line content, no pool, no index. Every power
 * failure it models is deterministic (no adversarial draws).
 */
struct RefDevice
{
    RefDevice(std::size_t size, std::uint32_t line) : durable(size, 0),
        lineSize(line)
    {}

    std::size_t
    span(std::uint64_t idx) const
    {
        return std::min<std::size_t>(lineSize, durable.size() - idx * lineSize);
    }

    /** Coherent content of line @p idx (cache over queue over media). */
    ByteBuffer
    line(std::uint64_t idx) const
    {
        if (auto it = cache.find(idx); it != cache.end())
            return it->second;
        if (auto it = queue.find(idx); it != queue.end())
            return it->second;
        ByteBuffer out(lineSize, 0);
        std::copy_n(durable.begin() + static_cast<std::ptrdiff_t>(
                        idx * lineSize), span(idx), out.begin());
        return out;
    }

    void
    write(std::size_t off, const ByteBuffer &data)
    {
        for (std::size_t i = 0; i < data.size(); ++i) {
            const std::uint64_t idx = (off + i) / lineSize;
            if (cache.count(idx) == 0)
                cache[idx] = line(idx);
            cache[idx][(off + i) % lineSize] = data[i];
        }
    }

    ByteBuffer
    read(std::size_t off, std::size_t len) const
    {
        ByteBuffer out(len);
        for (std::size_t i = 0; i < len; ++i)
            out[i] = line((off + i) / lineSize)[(off + i) % lineSize];
        return out;
    }

    void
    flush(std::size_t addr)
    {
        auto it = cache.find(addr / lineSize);
        if (it == cache.end())
            return;
        queue[it->first] = it->second;
        cache.erase(it);
    }

    void
    apply(std::uint64_t idx, const ByteBuffer &content)
    {
        std::copy_n(content.begin(), span(idx),
                    durable.begin() +
                        static_cast<std::ptrdiff_t>(idx * lineSize));
    }

    void
    drain()
    {
        for (const auto &[idx, content] : queue)
            apply(idx, content);
        queue.clear();
    }

    void
    powerFail(FailurePolicy policy)
    {
        if (policy == FailurePolicy::AllSurvive) {
            drain();
            for (const auto &[idx, content] : cache)
                apply(idx, content);
        }
        queue.clear();
        cache.clear();
    }

    ByteBuffer durable;
    std::uint32_t lineSize;
    std::map<std::uint64_t, ByteBuffer> cache;
    std::map<std::uint64_t, ByteBuffer> queue;
};

class NvramDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(NvramDifferential, MatchesReferenceModel)
{
    // 32-byte lines (Tuna's) over a device with a partial tail line;
    // small enough that random traffic keeps revisiting lines in
    // every cached/queued combination.
    constexpr std::size_t kSize = 4096 + 20;
    constexpr std::uint32_t kLine = 32;
    MetricsRegistry stats;
    NvramDevice dev(kSize, kLine, stats, GetParam());
    RefDevice ref(kSize, kLine);
    Rng rng(GetParam() * 7919 + 1);

    NvramDevice::Snapshot snap = dev.snapshot();
    RefDevice snap_ref = ref;

    for (int step = 0; step < 3000; ++step) {
        const int op = static_cast<int>(rng.nextBelow(100));
        if (op < 40) {
            const std::size_t len = 1 + rng.nextBelow(200);
            const std::size_t off = rng.nextBelow(kSize - len + 1);
            const ByteBuffer data = testutil::makeValue(len, rng.next());
            dev.write(off, testutil::spanOf(data));
            ref.write(off, data);
        } else if (op < 65) {
            // Flush a run of lines, as a WAL frame persist does.
            const std::size_t first = rng.nextBelow(kSize);
            const std::size_t lines = 1 + rng.nextBelow(8);
            for (std::size_t a = first; a < kSize && a < first + lines * kLine;
                 a += kLine) {
                dev.flushLine(a);
                ref.flush(a);
            }
        } else if (op < 75) {
            dev.drainPersistQueue();
            ref.drain();
        } else if (op < 88) {
            const std::size_t len = 1 + rng.nextBelow(kSize / 2);
            const std::size_t off = rng.nextBelow(kSize - len + 1);
            ByteBuffer out(len);
            dev.read(off, ByteSpan(out.data(), out.size()));
            ASSERT_EQ(out, ref.read(off, len)) << "step " << step;
        } else if (op < 92) {
            const FailurePolicy policy = rng.nextBool(0.5)
                                             ? FailurePolicy::Pessimistic
                                             : FailurePolicy::AllSurvive;
            dev.powerFail(policy);
            ref.powerFail(policy);
        } else if (op < 96) {
            snap = dev.snapshot();
            snap_ref = ref;
        } else {
            dev.restore(snap);
            ref = snap_ref;
        }
        ASSERT_EQ(dev.dirtyLineCount(), ref.cache.size()) << "step " << step;
        ASSERT_EQ(dev.queuedLineCount(), ref.queue.size()) << "step " << step;
    }
    ByteBuffer durable(kSize);
    dev.readDurable(0, ByteSpan(durable.data(), durable.size()));
    EXPECT_EQ(durable, ref.durable);
    ByteBuffer coherent(kSize);
    dev.read(0, ByteSpan(coherent.data(), coherent.size()));
    EXPECT_EQ(coherent, ref.read(0, kSize));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NvramDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(NvramAdversarial, SameSeedGivesIdenticalDurableImages)
{
    // Adversarial draws walk queued, then cached lines in ascending
    // line order, so one seed and one op sequence must tear the same
    // units whatever order the lines were dirtied in.
    auto run = [](std::uint64_t seed) {
        MetricsRegistry stats;
        NvramDevice dev(1 << 14, 32, stats, seed);
        Rng rng(99);
        for (int i = 0; i < 400; ++i) {
            const std::size_t off = rng.nextBelow((1 << 14) - 64);
            const ByteBuffer data = testutil::makeValue(64, rng.next());
            dev.write(off, testutil::spanOf(data));
            if (rng.nextBool(0.5))
                dev.flushLine(off);
            if (rng.nextBool(0.05))
                dev.drainPersistQueue();
        }
        // Leave both volatile layers populated for the crash.
        const ByteBuffer tail = testutil::makeValue(256, 5);
        dev.write(4096, testutil::spanOf(tail));
        for (NvOffset a = 4096; a < 4096 + 128; a += 32)
            dev.flushLine(a);
        EXPECT_GT(dev.queuedLineCount(), 0u);
        EXPECT_GT(dev.dirtyLineCount(), 0u);
        dev.powerFail(FailurePolicy::Adversarial, 0.5);
        ByteBuffer image(1 << 14);
        dev.readDurable(0, ByteSpan(image.data(), image.size()));
        return image;
    };
    EXPECT_EQ(run(17), run(17));
    EXPECT_NE(run(17), run(18));
}

} // namespace
} // namespace nvwal
