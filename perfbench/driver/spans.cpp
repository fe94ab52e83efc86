#include "spans.hpp"

#include <cstdio>

namespace perfbench
{

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::WriteTxn: return "write_txn";
      case SpanKind::ReadTxn: return "read_txn";
      case SpanKind::Begin: return "begin";
      case SpanKind::Insert: return "insert";
      case SpanKind::Update: return "update";
      case SpanKind::Get: return "get";
      case SpanKind::Commit: return "commit";
      case SpanKind::BeginRead: return "begin_read";
      case SpanKind::EndRead: return "end_read";
      case SpanKind::Recover: return "recover";
    }
    return "?";
}

std::int32_t
SpanRecorder::open(SpanKind kind, std::uint64_t txn)
{
    if (!_enabled)
        return -1;
    const std::int32_t parent = _stack.empty() ? -1 : _stack.back();
    const auto index = static_cast<std::int32_t>(_spans.size());
    _spans.push_back(Span{kind, 0, parent, txn, 0, 0, _clock.now(), 0});
    _stack.push_back(index);
    // Host clock last, so the span excludes its own bookkeeping.
    _spans.back().hostStartNs = hostNowNs();
    return index;
}

void
SpanRecorder::close(std::int32_t index)
{
    if (index < 0)
        return;
    const std::int64_t host_end = hostNowNs();
    Span &span = _spans[static_cast<std::size_t>(index)];
    span.hostEndNs = host_end;
    span.simEndNs = _clock.now();
    _stack.pop_back();
}

void
SpanRecorder::addFlags(std::int32_t index, std::uint8_t flags)
{
    if (index >= 0)
        _spans[static_cast<std::size_t>(index)].flags |= flags;
}

std::vector<std::int64_t>
SpanRecorder::selfHostNs() const
{
    std::vector<std::int64_t> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].hostNs();
    for (const Span &span : _spans) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.hostNs();
    }
    return self;
}

std::vector<std::uint64_t>
SpanRecorder::selfSimNs() const
{
    std::vector<std::uint64_t> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].simNs();
    for (const Span &span : _spans) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.simNs();
    }
    return self;
}

bool
SpanRecorder::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::vector<std::int64_t> self_host = selfHostNs();
    const std::vector<std::uint64_t> self_sim = selfSimNs();
    std::fprintf(f, "index,name,parent,txn,flags,host_start_ns,"
                    "host_end_ns,sim_start_ns,sim_end_ns,"
                    "self_host_ns,self_sim_ns\n");
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::fprintf(f, "%zu,%s,%d,%llu,%u,%lld,%lld,%llu,%llu,%lld,%llu\n",
                     i, spanKindName(s.kind), s.parent,
                     static_cast<unsigned long long>(s.txn), s.flags,
                     static_cast<long long>(s.hostStartNs),
                     static_cast<long long>(s.hostEndNs),
                     static_cast<unsigned long long>(s.simStartNs),
                     static_cast<unsigned long long>(s.simEndNs),
                     static_cast<long long>(self_host[i]),
                     static_cast<unsigned long long>(self_sim[i]));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
