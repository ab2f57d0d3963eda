/**
 * @file
 * buckwild_tracemerge — stitch per-process Chrome traces into one
 * fleet timeline.
 *
 * A traced multi-process run (`buckwild_cluster --spawn --trace-dir D`,
 * or any set of processes exporting via --trace-out with process labels
 * set) leaves one Chrome trace_event JSON per process, each on its own
 * CLOCK_MONOTONIC. This tool merges them:
 *
 *  1. every input keeps its events, renumbered onto a distinct pid
 *     (with a process_name metadata event, synthesized from the file
 *     name when the input carries none);
 *  2. pairwise clock offsets are estimated from the clocksync instants
 *     the RPC clients record (each is one NTP-style sample — the
 *     responder's echoed receive/send timestamps against the
 *     requester's send/receive pair, offset = ((b1-a1)+(b2-a2))/2).
 *     Every RPC mints its own trace id, so a clocksync in process A
 *     whose trace id also appears in process B pins the (A, B) pair;
 *     the per-pair estimate is the median over all such samples;
 *  3. all timestamps are corrected onto the reference process's clock
 *     (BFS over the pair graph from --reference, default "control" or
 *     the first input);
 *  4. every trace id seen in two or more processes becomes a Chrome
 *     flow (ph s/t/f), so Perfetto draws the cross-process arrows.
 *
 *     buckwild_tracemerge --dir /tmp/traces -o merged.trace.json
 *     buckwild_tracemerge a.trace.json b.trace.json --require-cross-process
 *
 * --require-cross-process makes the exit status assert correlation: it
 * fails unless at least one trace id spans two processes (what CI runs
 * after the traced smoke cluster).
 */
#include <dirent.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "flags.h"

namespace {

// ------------------------------------------------------- tiny JSON

/// A parsed JSON value. Objects keep insertion order so the merged
/// output stays diffable against the inputs.
struct JValue
{
    enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JValue> array;
    std::vector<std::pair<std::string, JValue>> object;

    const JValue*
    find(const char* key) const
    {
        if (kind != kObject) return nullptr;
        for (const auto& [k, v] : object)
            if (k == key) return &v;
        return nullptr;
    }

    JValue*
    find(const char* key)
    {
        if (kind != kObject) return nullptr;
        for (auto& [k, v] : object)
            if (k == key) return &v;
        return nullptr;
    }

    double
    num_or(double fallback) const
    {
        return kind == kNumber ? number : fallback;
    }
};

/// Recursive-descent parser over the exporter's (strict, machine
/// written) JSON. Fails loudly: a malformed input names its offset.
class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JValue
    parse()
    {
        JValue value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing content");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const char* what) const
    {
        throw std::runtime_error("JSON parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skip_ws()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c) fail("unexpected character");
        ++pos_;
    }

    JValue
    parse_value()
    {
        skip_ws();
        switch (peek()) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"': {
            JValue v;
            v.kind = JValue::kString;
            v.string = parse_string();
            return v;
        }
        case 't':
        case 'f': {
            JValue v;
            v.kind = JValue::kBool;
            v.boolean = text_[pos_] == 't';
            const char* word = v.boolean ? "true" : "false";
            const std::size_t len = v.boolean ? 4 : 5;
            if (text_.compare(pos_, len, word) != 0) fail("bad literal");
            pos_ += len;
            return v;
        }
        case 'n': {
            if (text_.compare(pos_, 4, "null") != 0) fail("bad literal");
            pos_ += 4;
            return JValue{};
        }
        default: return parse_number();
        }
    }

    JValue
    parse_object()
    {
        expect('{');
        JValue v;
        v.kind = JValue::kObject;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            v.object.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JValue
    parse_array()
    {
        expect('[');
        JValue v;
        v.kind = JValue::kArray;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned code = 0;
                const char* hex = text_.data() + pos_;
                if (pos_ + 4 > text_.size() ||
                    std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
                    fail("bad \\u escape");
                pos_ += 4;
                // The exporter only \u-escapes control bytes; emit the
                // low byte and let anything exotic round-trip as '?'.
                out += code < 0x100 ? static_cast<char>(code) : '?';
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    JValue
    parse_number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start) fail("expected a value");
        JValue v;
        v.kind = JValue::kNumber;
        const char* end = text_.data() + pos_;
        if (std::from_chars(text_.data() + start, end, v.number).ptr != end)
            fail("bad number");
        return v;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
write_json(std::ostream& out, const JValue& v)
{
    switch (v.kind) {
    case JValue::kNull: out << "null"; break;
    case JValue::kBool: out << (v.boolean ? "true" : "false"); break;
    case JValue::kNumber: {
        // Integral values print without an exponent or trailing ".0" so
        // pids/ids survive the round trip exactly.
        const double n = v.number;
        if (std::isfinite(n) && n == std::floor(n) &&
            std::fabs(n) < 9.0e15) {
            out << static_cast<long long>(n);
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", n);
            out << buf;
        }
        break;
    }
    case JValue::kString: out << '"' << json_escape(v.string) << '"'; break;
    case JValue::kArray: {
        out << '[';
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            if (i != 0) out << ',';
            write_json(out, v.array[i]);
        }
        out << ']';
        break;
    }
    case JValue::kObject: {
        out << '{';
        for (std::size_t i = 0; i < v.object.size(); ++i) {
            if (i != 0) out << ',';
            out << '"' << json_escape(v.object[i].first) << "\":";
            write_json(out, v.object[i].second);
        }
        out << '}';
        break;
    }
    }
}

// --------------------------------------------------- trace loading

/// One input trace: its label, its events (as parsed JSON objects, so
/// unknown fields survive the merge), and the correlation indices.
struct ProcessTrace
{
    std::string path;
    std::string label;
    std::vector<JValue> events; ///< non-metadata traceEvents
    std::set<std::string> trace_ids;
    /// clocksync samples recorded IN this process: trace id -> offsets
    /// (responder clock minus this clock, ns).
    std::vector<std::pair<std::string, double>> sync_samples;
    double offset_ns = 0.0; ///< this clock minus the reference clock
    bool anchored = false;  ///< reachable from the reference process
};

std::string
file_stem(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    std::string name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    // "shard0.trace.json" -> "shard0"
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

ProcessTrace
load_trace(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    ProcessTrace trace;
    trace.path = path;
    JValue root = JsonParser(text).parse();
    JValue* events = root.find("traceEvents");
    if (events == nullptr || events->kind != JValue::kArray)
        throw std::runtime_error(path +
                                 ": not a Chrome trace (no traceEvents array)");

    for (JValue& ev : events->array) {
        const JValue* ph = ev.find("ph");
        const JValue* name = ev.find("name");
        if (ph != nullptr && ph->string == "M") {
            if (name != nullptr && name->string == "process_name") {
                if (const JValue* args = ev.find("args"))
                    if (const JValue* label = args->find("name"))
                        trace.label = label->string;
            }
            continue; // metadata is re-synthesized on output
        }
        if (const JValue* args = ev.find("args")) {
            if (const JValue* id = args->find("trace")) {
                trace.trace_ids.insert(id->string);
                if (const JValue* offset = args->find("offset_ns"))
                    trace.sync_samples.emplace_back(id->string,
                                                    offset->num_or(0.0));
            }
        }
        trace.events.push_back(std::move(ev));
    }
    if (trace.label.empty()) trace.label = file_stem(path);
    return trace;
}

double
median(std::vector<double>& values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace

int
main(int argc, char** argv)
try {
    namespace flags = buckwild::tools::flags;
    std::vector<std::string> inputs;
    std::string out_path = "merged.trace.json";
    std::string reference;
    bool require_cross = false;

    flags::Table table(
        "buckwild_tracemerge — merge per-process Chrome traces into one\n"
        "offset-corrected fleet timeline\n\n"
        "  buckwild_tracemerge [options] trace.json [trace.json ...]");
    table.flag({"--dir"}, "DIR", "also merge every *.trace.json in DIR",
               [&inputs](const std::string& dir) {
                   DIR* handle = ::opendir(dir.c_str());
                   if (handle == nullptr)
                       throw std::runtime_error("cannot open directory " +
                                                dir);
                   const std::string suffix = ".trace.json";
                   while (const dirent* entry = ::readdir(handle)) {
                       const std::string name = entry->d_name;
                       if (name.size() > suffix.size() &&
                           name.compare(name.size() - suffix.size(),
                                        suffix.size(), suffix) == 0)
                           inputs.push_back(dir + "/" + name);
                   }
                   ::closedir(handle);
               });
    table.flag({"-o", "--out"}, "PATH",
               "output file (default merged.trace.json)",
               flags::text(out_path));
    table.flag({"--reference"}, "LABEL",
               "process whose clock anchors the merge (default: \"control\" "
               "when present, else the first input)",
               flags::text(reference));
    table.flag({"--require-cross-process"},
               "exit 1 unless some trace id appears in at least two "
               "processes (CI assertion)",
               flags::set(require_cross, true));
    table.positional(
        [&inputs](const std::string& path) { inputs.push_back(path); });
    table.parse_or_exit(argc, argv);

    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    // A previous run's output living inside --dir must not become an
    // input (re-merging is a common workflow; self-ingestion doubles
    // every event).
    inputs.erase(std::remove_if(inputs.begin(), inputs.end(),
                                [&](const std::string& p) {
                                    return p == out_path ||
                                           file_stem(p) ==
                                               file_stem(out_path);
                                }),
                 inputs.end());
    if (inputs.empty())
        flags::usage_error("no input traces (files or --dir)");

    std::vector<ProcessTrace> processes;
    for (const std::string& path : inputs)
        processes.push_back(load_trace(path));

    // ---- pairwise clock offsets -----------------------------------
    // A clocksync in process A whose trace id also lives in process B
    // is one sample of (B's clock - A's clock). Median per pair.
    std::map<std::pair<std::size_t, std::size_t>, std::vector<double>>
        pair_samples;
    for (std::size_t a = 0; a < processes.size(); ++a) {
        for (const auto& [trace_id, offset] : processes[a].sync_samples) {
            for (std::size_t b = 0; b < processes.size(); ++b) {
                if (b == a) continue;
                if (processes[b].trace_ids.count(trace_id) != 0)
                    pair_samples[{a, b}].push_back(offset);
            }
        }
    }
    std::map<std::pair<std::size_t, std::size_t>, double> pair_offset;
    for (auto& [pair, samples] : pair_samples)
        pair_offset[pair] = median(samples);

    // ---- anchor every process to the reference clock --------------
    std::size_t ref = 0;
    if (!reference.empty()) {
        bool found = false;
        for (std::size_t i = 0; i < processes.size(); ++i)
            if (processes[i].label == reference) {
                ref = i;
                found = true;
            }
        if (!found)
            throw std::runtime_error("no input process labeled '" +
                                     reference + "'");
    } else {
        for (std::size_t i = 0; i < processes.size(); ++i)
            if (processes[i].label == "control") ref = i;
    }
    processes[ref].anchored = true;
    processes[ref].offset_ns = 0.0;
    // BFS: offset(B) = offset(A) + (B - A). Edges exist in whichever
    // direction the RPCs ran; flip the sign for the reverse walk.
    std::vector<std::size_t> frontier{ref};
    while (!frontier.empty()) {
        std::vector<std::size_t> next;
        for (const std::size_t a : frontier) {
            for (std::size_t b = 0; b < processes.size(); ++b) {
                if (processes[b].anchored) continue;
                const auto forward = pair_offset.find({a, b});
                const auto backward = pair_offset.find({b, a});
                if (forward == pair_offset.end() &&
                    backward == pair_offset.end())
                    continue;
                const double edge = forward != pair_offset.end()
                    ? forward->second
                    : -backward->second;
                processes[b].offset_ns = processes[a].offset_ns + edge;
                processes[b].anchored = true;
                next.push_back(b);
            }
        }
        frontier = std::move(next);
    }

    // ---- cross-process trace ids (the flow arrows) ----------------
    std::map<std::string, std::set<std::size_t>> trace_processes;
    for (std::size_t i = 0; i < processes.size(); ++i)
        for (const std::string& id : processes[i].trace_ids)
            trace_processes[id].insert(i);
    std::size_t cross_traces = 0;
    for (const auto& [id, where] : trace_processes)
        if (where.size() >= 2) ++cross_traces;

    // ---- emit the merged timeline ---------------------------------
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot open output " + out_path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const JValue& ev) {
        if (!first) out << ',';
        first = false;
        out << '\n';
        write_json(out, ev);
    };

    // Flow bookkeeping: earliest corrected event per (trace id,
    // process) — each becomes one flow point, s/t/f by corrected time.
    struct FlowPoint
    {
        double ts = 0.0;
        std::uint64_t pid = 0;
        double tid = 0.0;
    };
    std::map<std::string, std::vector<FlowPoint>> flows;

    std::size_t total_events = 0;
    for (std::size_t i = 0; i < processes.size(); ++i) {
        ProcessTrace& process = processes[i];
        const std::uint64_t pid = i + 1;
        const double shift_us = process.offset_ns / 1000.0;
        emit([&] {
            JValue meta;
            meta.kind = JValue::kObject;
            auto add = [&meta](const char* k, JValue v) {
                meta.object.emplace_back(k, std::move(v));
            };
            JValue s;
            s.kind = JValue::kString;
            s.string = "process_name";
            add("name", s);
            s.string = "M";
            add("ph", s);
            JValue n;
            n.kind = JValue::kNumber;
            n.number = static_cast<double>(pid);
            add("pid", n);
            n.number = 0;
            add("tid", n);
            JValue args;
            args.kind = JValue::kObject;
            s.string = process.label;
            args.object.emplace_back("name", s);
            add("args", args);
            return meta;
        }());
        std::map<std::string, FlowPoint> earliest;
        for (JValue& ev : process.events) {
            if (JValue* p = ev.find("pid")) {
                p->kind = JValue::kNumber;
                p->number = static_cast<double>(pid);
            }
            if (JValue* ts = ev.find("ts")) {
                ts->number -= shift_us;
                if (const JValue* args = ev.find("args"))
                    if (const JValue* id = args->find("trace")) {
                        const auto it = earliest.find(id->string);
                        if (it == earliest.end() ||
                            ts->number < it->second.ts) {
                            const JValue* tid = ev.find("tid");
                            earliest[id->string] = FlowPoint{
                                ts->number, pid,
                                tid != nullptr ? tid->num_or(0.0) : 0.0};
                        }
                    }
            }
            emit(ev);
            ++total_events;
        }
        for (const auto& [id, point] : earliest)
            if (trace_processes[id].size() >= 2)
                flows[id].push_back(point);
    }

    // One Chrome flow per cross-process trace id: start at the first
    // corrected point, step through the middle ones, finish at the
    // last. The 64-bit flow id is the low half of the 128-bit trace id.
    std::size_t flow_events = 0;
    for (auto& [id, points] : flows) {
        if (points.size() < 2) continue;
        std::sort(points.begin(), points.end(),
                  [](const FlowPoint& a, const FlowPoint& b) {
                      return a.ts < b.ts;
                  });
        const std::string low = id.size() > 16 ? id.substr(id.size() - 16)
                                               : id;
        std::uint64_t flow_id = 0;
        const char* end = low.data() + low.size();
        if (std::from_chars(low.data(), end, flow_id, 16).ptr != end)
            flow_id = std::hash<std::string>{}(id); // not a hex id
        for (std::size_t p = 0; p < points.size(); ++p) {
            const char* ph = p == 0 ? "s"
                : p + 1 == points.size() ? "f"
                                         : "t";
            if (!first) out << ',';
            first = false;
            out << "\n{\"name\":\"trace\",\"cat\":\"flow\",\"ph\":\"" << ph
                << "\",\"id\":" << flow_id
                << ",\"ts\":" << points[p].ts
                << ",\"pid\":" << points[p].pid << ",\"tid\":"
                << static_cast<long long>(points[p].tid);
            if (ph[0] == 'f') out << ",\"bp\":\"e\"";
            out << "}";
            ++flow_events;
        }
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("write failed for " + out_path);

    // ---- summary ---------------------------------------------------
    std::printf("merged %zu processes, %zu events into %s\n",
                processes.size(), total_events, out_path.c_str());
    for (std::size_t i = 0; i < processes.size(); ++i)
        std::printf("  pid %zu  %-12s offset %+.0f ns%s  (%s)\n", i + 1,
                    processes[i].label.c_str(), processes[i].offset_ns,
                    processes[i].anchored ? "" : "  [no sync path]",
                    processes[i].path.c_str());
    for (const auto& [pair, samples] : pair_samples) {
        std::vector<double> copy = samples;
        std::printf("  sync %s -> %s: %zu samples, median %+.0f ns\n",
                    processes[pair.first].label.c_str(),
                    processes[pair.second].label.c_str(), samples.size(),
                    median(copy));
    }
    std::printf("  cross-process traces: %zu (flow events: %zu)\n",
                cross_traces, flow_events);
    if (require_cross && cross_traces == 0) {
        std::fprintf(stderr,
                     "error: no trace id spans two processes (was "
                     "tracing enabled in every process?)\n");
        return 1;
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
}
