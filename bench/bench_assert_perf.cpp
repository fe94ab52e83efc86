/**
 * @file
 * CI perf-regression gate. Compares a bench's `--json` output against
 * a committed bounds file: every bound names a record and a set of
 * per-value *upper* limits, so improvements always pass and only
 * regressions fail. An entry may also carry *lower* limits ("min"),
 * for values that size the workload rather than measure its cost (a
 * gate is only meaningful if the run reached the size it claims). Bounds carry headroom over the numbers recorded
 * in EXPERIMENTS.md to absorb workload-size differences between the
 * `--smoke` and full runs, both of which must stay under them.
 *
 * Bounds file schema:
 *   { "bench": "<bench name>",
 *     "bounds": [ { "record": "<record name>",
 *                   "max": { "<value key>": <limit>, ... } }, ... ] }
 *
 * Usage: bench_assert_perf <bench.json> <bounds.json>
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "obs/json.hpp"

using namespace nvwal;

namespace
{

int failures = 0;

void
fail(const std::string &what)
{
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
    ++failures;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    std::fclose(f);
    return true;
}

bool
parseFile(const std::string &path, JsonValue *doc)
{
    std::string text;
    if (!readFile(path, &text)) {
        fail(path + ": cannot open");
        return false;
    }
    const Status parsed = parseJson(text, doc);
    if (!parsed.isOk()) {
        fail(path + ": " + parsed.toString());
        return false;
    }
    if (!doc->isObject()) {
        fail(path + ": top level is not an object");
        return false;
    }
    return true;
}

/** Find the record whose "name" member equals @p name. */
const JsonValue *
findRecord(const JsonValue &records, const std::string &name)
{
    for (const JsonValue &rec : records.array) {
        if (!rec.isObject())
            continue;
        const JsonValue *n = rec.find("name");
        if (n != nullptr && n->type == JsonValue::Type::String &&
            n->string == name) {
            return &rec;
        }
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: %s <bench.json> <bounds.json>\n", argv[0]);
        return 2;
    }
    JsonValue bench, bounds;
    if (!parseFile(argv[1], &bench) || !parseFile(argv[2], &bounds))
        return 1;

    const JsonValue *records = bench.find("records");
    if (records == nullptr || !records->isArray()) {
        fail(std::string(argv[1]) + ": no records array");
        return 1;
    }
    const JsonValue *expected_bench = bounds.find("bench");
    const JsonValue *actual_bench = bench.find("bench");
    if (expected_bench != nullptr && actual_bench != nullptr &&
        expected_bench->string != actual_bench->string) {
        fail("bench name mismatch: bounds are for \"" +
             expected_bench->string + "\", output is from \"" +
             actual_bench->string + "\"");
    }
    const JsonValue *entries = bounds.find("bounds");
    if (entries == nullptr || !entries->isArray() ||
        entries->array.empty()) {
        fail(std::string(argv[2]) + ": no bounds array");
        return 1;
    }

    int checks = 0;
    for (const JsonValue &entry : entries->array) {
        const JsonValue *rec_name = entry.find("record");
        const JsonValue *max = entry.find("max");
        const JsonValue *min = entry.find("min");
        if (rec_name == nullptr ||
            rec_name->type != JsonValue::Type::String ||
            (max == nullptr && min == nullptr) ||
            (max != nullptr && !max->isObject()) ||
            (min != nullptr && !min->isObject())) {
            fail("malformed bounds entry");
            continue;
        }
        const JsonValue *rec = findRecord(*records, rec_name->string);
        if (rec == nullptr) {
            fail("record \"" + rec_name->string +
                 "\" missing from bench output");
            continue;
        }
        const JsonValue *values = rec->find("values");
        for (const JsonValue *limits : {max, min}) {
            if (limits == nullptr)
                continue;
            const bool upper = limits == max;
            for (const auto &[key, limit] : limits->object) {
                ++checks;
                const std::string what = rec_name->string + "." + key;
                if (!limit.isNumber() || !std::isfinite(limit.number)) {
                    fail(what + ": bad limit");
                    continue;
                }
                const JsonValue *v =
                    values != nullptr ? values->find(key) : nullptr;
                if (v == nullptr || !v->isNumber()) {
                    fail(what + ": value missing from bench output");
                    continue;
                }
                if (upper ? v->number > limit.number
                          : v->number < limit.number) {
                    fail(what + ": " + std::to_string(v->number) +
                         (upper ? " exceeds bound " : " below bound ") +
                         std::to_string(limit.number));
                    continue;
                }
                std::printf("ok   %s: %g %s %g\n", what.c_str(), v->number,
                            upper ? "<=" : ">=", limit.number);
            }
        }
    }
    if (failures == 0)
        std::printf("%d perf bound(s) hold\n", checks);
    return failures == 0 ? 0 : 1;
}
