/**
 * @file
 * Unit tests for the pager's dirty-page tracking: the intrusive dirty
 * list must always name exactly the dirty cached pages, however a
 * transaction mixes marks, allocations, frees, commits, rollbacks,
 * evictions and bulk flushes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "db/env.hpp"
#include "pager/pager.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 4096;
constexpr std::uint32_t kReserved = 24;

class PagerTest : public ::testing::Test
{
  protected:
    PagerTest()
        : env(makeEnvConfig()), dbFile(env.fs, "p.db", kPageSize),
          pager(dbFile, kPageSize, kReserved)
    {
        NVWAL_CHECK_OK(dbFile.open());
        NVWAL_CHECK_OK(pager.open());
        // Committed page images stand in for the WAL: the pager reads
        // through them first, then the .db file.
        pager.setWalReader([this](PageNo no, ByteSpan out) {
            auto it = wal.find(no);
            if (it == wal.end())
                return Status::notFound();
            std::memcpy(out.data(), it->second.data(), out.size());
            return Status::ok();
        });
    }

    static EnvConfig
    makeEnvConfig()
    {
        EnvConfig c;
        c.cost = CostModel::nexus5();
        return c;
    }

    /** The dirty set by a walk over every page number: the oracle. */
    std::vector<PageNo>
    bruteForceDirty(PageNo max_page)
    {
        std::vector<PageNo> out;
        for (PageNo no = 1; no <= max_page; ++no) {
            const CachedPage *page = pager.cached(no);
            if (page != nullptr && page->isDirty())
                out.push_back(no);
        }
        return out;
    }

    /** Commit: log every dirty page's image, then clean the cache. */
    void
    commit()
    {
        for (PageNo no : pager.dirtyPageNos())
            wal[no] = pager.cached(no)->buf;
        pager.markAllClean();
    }

    Env env;
    DbFile dbFile;
    Pager pager;
    std::map<PageNo, ByteBuffer> wal;
};

TEST_F(PagerTest, FetchAloneDoesNotDirty)
{
    CachedPage *page;
    NVWAL_CHECK_OK(pager.getPage(2, &page));
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    page->dirty.mark(10, 20);
    EXPECT_EQ(pager.dirtyPageNos(), std::vector<PageNo>{2});
}

TEST_F(PagerTest, DirtyPageNosAreAscending)
{
    for (int i = 0; i < 6; ++i) {
        CachedPage *page;
        PageNo no;
        NVWAL_CHECK_OK(pager.allocatePage(&page, &no));
    }
    commit();
    // Dirty in descending order; the list must still report ascending.
    for (PageNo no = 8; no >= 2; --no) {
        CachedPage *page;
        NVWAL_CHECK_OK(pager.getPage(no, &page));
        page->dirty.mark(0, 4);
    }
    EXPECT_EQ(pager.dirtyPageNos(),
              (std::vector<PageNo>{2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(PagerTest, PageRedirtiedThroughHeldPointerIsCollected)
{
    // Regression: a page cleaned by markAllClean() and dirtied again
    // through a pointer held across the commit must rejoin the list.
    CachedPage *held;
    NVWAL_CHECK_OK(pager.getPage(2, &held));
    held->dirty.mark(0, 8);
    commit();
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    held->buf[100] = 0x5A;
    held->dirty.mark(100, 101);
    EXPECT_EQ(pager.dirtyPageNos(), std::vector<PageNo>{2});
    commit();
    EXPECT_EQ(wal.at(2)[100], 0x5A);
}

TEST_F(PagerTest, RollbackEvictsEveryDirtyPageAndRestoresPageCount)
{
    CachedPage *page;
    PageNo no;
    NVWAL_CHECK_OK(pager.allocatePage(&page, &no));
    commit();
    const std::uint32_t start_count = pager.pageCount();

    // One transaction: dirty an existing page, grow the database by
    // three pages and free one of them again.
    NVWAL_CHECK_OK(pager.getPage(no, &page));
    page->buf[64] = 0xEE;
    page->dirty.mark(64, 65);
    std::vector<PageNo> grown;
    for (int i = 0; i < 3; ++i) {
        PageNo g;
        NVWAL_CHECK_OK(pager.allocatePage(&page, &g));
        grown.push_back(g);
    }
    NVWAL_CHECK_OK(pager.freePage(grown.back()));
    const std::vector<PageNo> dirty = pager.dirtyPageNos();
    ASSERT_FALSE(dirty.empty());

    pager.discardDirty(start_count);
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    EXPECT_EQ(pager.pageCount(), start_count);
    for (PageNo d : dirty)
        EXPECT_EQ(pager.cached(d), nullptr) << "page " << d;
    EXPECT_EQ(pager.freePageCount(), 0u);
    NVWAL_CHECK_OK(pager.getPage(no, &page));
    EXPECT_EQ(page->buf[64], 0);  // the committed image, re-read
}

TEST_F(PagerTest, CopiedDirtyRangesDoNotEnlist)
{
    CachedPage *page;
    NVWAL_CHECK_OK(pager.getPage(2, &page));
    page->dirty.mark(0, 16);

    // A commit frame copies the ranges out of the page (the queued
    // GroupEntry::Frame); neither the copy nor a move of it may join
    // the page's list, before or after the page is cleaned.
    DirtyRanges copy = page->dirty;
    DirtyRanges assigned;
    assigned = page->dirty;
    EXPECT_EQ(pager.dirtyPageNos(), std::vector<PageNo>{2});
    pager.markAllClean();
    // Cleaning the page leaves the copies alone.
    EXPECT_FALSE(copy.empty());
    EXPECT_FALSE(assigned.empty());
    copy.mark(32, 48);
    assigned.mark(64, 80);
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    DirtyRanges moved = std::move(copy);
    moved.mark(96, 112);
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    EXPECT_FALSE(moved.empty());

    // Assigning into a page's set keeps that page's attachment.
    page->dirty = moved;
    EXPECT_EQ(pager.dirtyPageNos(), std::vector<PageNo>{2});
    page->dirty = DirtyRanges();
    EXPECT_TRUE(pager.dirtyPageNos().empty());
}

TEST_F(PagerTest, FlushAllToFileCleansAndPersists)
{
    CachedPage *page;
    PageNo no;
    NVWAL_CHECK_OK(pager.allocatePage(&page, &no));
    page->buf[7] = 0x42;
    NVWAL_CHECK_OK(pager.flushAllToFile());
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    pager.dropCleanPages();
    EXPECT_EQ(pager.cached(no), nullptr);
    NVWAL_CHECK_OK(pager.getPage(no, &page));
    EXPECT_EQ(page->buf[7], 0x42);
}

/**
 * Seeded random sequences of every pager operation that touches the
 * dirty set; after each step the list must equal the brute-force walk
 * and the page count must match the model.
 */
class PagerModel : public PagerTest,
                   public ::testing::WithParamInterface<std::uint64_t>
{
};

TEST_P(PagerModel, DirtyListMatchesBruteForceWalk)
{
    Rng rng(GetParam());
    // Free-list membership, live at the end of the last commit and
    // now (freeing a page twice would corrupt the list).
    std::set<PageNo> committed_free;
    std::set<PageNo> free_pages;
    std::uint32_t txn_start_count = pager.pageCount();
    PageNo max_page = pager.pageCount();
    CachedPage *held = nullptr;  // valid until the next eviction

    for (int step = 0; step < 1500; ++step) {
        const int op = static_cast<int>(rng.nextBelow(100));
        if (op < 45) {
            // Mark a range on some page; content changes only on live
            // data pages so the free list stays intact.
            const PageNo no =
                static_cast<PageNo>(rng.nextInRange(1, pager.pageCount()));
            CachedPage *page;
            NVWAL_CHECK_OK(pager.getPage(no, &page));
            const std::uint32_t lo = static_cast<std::uint32_t>(
                rng.nextBelow(kPageSize - kReserved - 1));
            const std::uint32_t hi = static_cast<std::uint32_t>(
                rng.nextInRange(lo + 1, kPageSize - kReserved));
            if (no > 2 && free_pages.count(no) == 0)
                page->buf[lo] = static_cast<std::uint8_t>(rng.next());
            page->dirty.mark(lo, hi);
            held = page;
        } else if (op < 52 && held != nullptr) {
            held->dirty.mark(0, 1);  // re-dirty through a held pointer
        } else if (op < 64) {
            CachedPage *page;
            PageNo no;
            NVWAL_CHECK_OK(pager.allocatePage(&page, &no));
            free_pages.erase(no);
            max_page = std::max(max_page, no);
        } else if (op < 72) {
            std::vector<PageNo> live;
            for (PageNo no = 3; no <= pager.pageCount(); ++no)
                if (free_pages.count(no) == 0)
                    live.push_back(no);
            if (!live.empty()) {
                const PageNo no = live[rng.nextBelow(live.size())];
                NVWAL_CHECK_OK(pager.freePage(no));
                free_pages.insert(no);
            }
        } else if (op < 84) {
            commit();
            committed_free = free_pages;
            txn_start_count = pager.pageCount();
        } else if (op < 90) {
            const std::vector<PageNo> dirty = pager.dirtyPageNos();
            pager.discardDirty(txn_start_count);
            for (PageNo no : dirty)
                ASSERT_EQ(pager.cached(no), nullptr) << "page " << no;
            ASSERT_EQ(pager.pageCount(), txn_start_count);
            free_pages = committed_free;
            held = nullptr;
        } else if (op < 96) {
            const std::vector<PageNo> dirty = pager.dirtyPageNos();
            pager.dropCleanPages();
            for (PageNo no : dirty)
                ASSERT_NE(pager.cached(no), nullptr) << "page " << no;
            held = nullptr;
        } else {
            // Bulk write-back: the file now holds the newest image, so
            // the stand-in log must not shadow it.
            for (PageNo no : pager.dirtyPageNos())
                wal.erase(no);
            NVWAL_CHECK_OK(pager.flushAllToFile());
            committed_free = free_pages;
            txn_start_count = pager.pageCount();
        }
        ASSERT_EQ(pager.dirtyPageNos(), bruteForceDirty(max_page))
            << "step " << step << " op " << op;
    }
    EXPECT_EQ(pager.freePageCount(), free_pages.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagerModel,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

} // namespace
} // namespace nvwal
