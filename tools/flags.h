/**
 * @file
 * The flag table every buckwild_* tool parses its command line with.
 *
 * A tool lists each flag once: its names (aliases after the first), a
 * metavar, one help line, and binders that write its values straight
 * into the fields it sets. The same table parses argv, rejects a
 * malformed value with an error naming the flag, and prints --help
 * under the tool's section headings. The arities are the ones the tools
 * use: switches, a fixed number of values, one optional trailing value
 * (taken unless the next token starts with '-') and positional
 * arguments. A required value is taken as is, so `--tau -1` reaches the
 * count binder and is rejected there. Header-only and free of library
 * includes: buckwild_tracemerge links nothing from the library.
 */
#ifndef BUCKWILD_TOOLS_FLAGS_H
#define BUCKWILD_TOOLS_FLAGS_H

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace buckwild::tools::flags {

/// A malformed command line; once parse() has it, what() names the flag.
struct Error : std::runtime_error { using std::runtime_error::runtime_error; };

/// Prints `error: <message> (try --help)` to stderr and exits 1.
[[noreturn]] inline void
usage_error(const std::string& message)
{
    std::fprintf(stderr, "error: %s (try --help)\n", message.c_str());
    std::exit(1);
}

/// A decimal count in [min, max]: digits only, so a sign, a base prefix,
/// an exponent, trailing junk or a value past 2^64 - 1 is an error.
inline std::uint64_t
parse_count(std::string_view token, std::uint64_t min = 0,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::string quoted(1, '\'');
    quoted.append(token).push_back('\'');
    std::uint64_t value = 0;
    const char* end = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || stop != end || ec == std::errc::invalid_argument)
        throw Error("expected a decimal count, got " + quoted);
    if (ec != std::errc() || value < min || value > max)
        throw Error(quoted + " is out of range [" + std::to_string(min) +
                    ", " + std::to_string(max) + "]");
    return value;
}

/// A finite real number: no nan, no inf, nothing after the number.
inline double
parse_real(std::string_view token)
{
    double value = 0.0;
    const char* end = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || stop != end || ec != std::errc() ||
        !std::isfinite(value))
        throw Error("expected a finite real number, got '" +
                    std::string(token) + "'");
    return value;
}

/// Parses one value token into the field it is bound to; throws (any
/// std::exception) on a malformed token.
using Binder = std::function<void(const std::string& token)>;
/// What a flag does once its values are bound (a switch's whole effect).
using Action = std::function<void()>;

/// An unsigned count, at least `min`, at most what the field holds.
template <std::unsigned_integral T>
Binder
count(T& field, std::type_identity_t<T> min = 0)
{
    return [&field, min](const std::string& token) {
        field = static_cast<T>(
            parse_count(token, min, std::numeric_limits<T>::max()));
    };
}

/// A finite real (a float that would overflow is rejected too).
template <std::floating_point T>
Binder
real(T& field)
{
    return [&field](const std::string& token) {
        const T value = static_cast<T>(parse_real(token));
        if (!std::isfinite(value)) throw Error(token + " is out of range");
        field = value;
    };
}

/// A TCP port, 0..65535 (0 = pick a free one).
inline Binder
port(int& field)
{
    return [&field](const std::string& token) {
        field = static_cast<int>(parse_count(token, 0, 65535));
    };
}

/// A string (or optional string), taken verbatim.
template <typename T>
Binder
text(T& field)
{
    return [&field](const std::string& token) { field = token; };
}

/// One of a fixed set of names, each mapped to the value it sets.
template <typename T>
Binder
choice(T& field, std::vector<std::pair<std::string, T>> options)
{
    return [&field, options = std::move(options)](const std::string& token) {
        std::string names;
        for (const auto& [name, value] : options) {
            if (token == name) {
                field = value;
                return;
            }
            names += (names.empty() ? "" : " | ") + name;
        }
        throw Error("unknown value '" + token + "' (want " + names + ")");
    };
}

template <typename T> inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// field = parse(token), through one of the library's parsers: `parse`
/// returns the value and throws on a bad token, or returns an optional
/// that is empty on one.
template <typename T, typename Parse>
Binder
parsed(T& field, Parse parse)
{
    return [&field, parse](const std::string& token) {
        auto value = parse(token);
        if constexpr (kIsOptional<decltype(value)>) {
            if (!value) throw Error("unknown value '" + token + "'");
            field = *std::move(value);
        } else {
            field = std::move(value);
        }
    };
}

/// A comma-separated list, each element through parsed(); an empty
/// element (so an empty list too) is an error.
template <typename T, typename Parse>
Binder
list(std::vector<T>& field, Parse parse)
{
    return [&field, parse](const std::string& token) {
        std::vector<T> out;
        for (std::size_t begin = 0; begin <= token.size();) {
            const std::size_t comma =
                std::min(token.find(',', begin), token.size());
            if (comma == begin)
                throw Error("empty element in list '" + token + "'");
            parsed(out.emplace_back(), parse)(
                token.substr(begin, comma - begin));
            begin = comma + 1;
        }
        field = std::move(out);
    };
}

/// An action that stores `value` in `field`.
template <typename T>
Action
set(T& field, std::type_identity_t<T> value)
{
    return [&field, value] { field = value; };
}

/// One table entry: names, --help text, and what its values bind.
struct Flag
{
    std::vector<std::string> names;
    std::string metavar;
    std::string help;
    std::vector<Binder> values; ///< one per required value, in order
    Binder optional_value;      ///< a trailing value, if the flag has one
    Action action;              ///< runs after the values bind

    Flag& value(Binder b) { values.push_back(std::move(b)); return *this; }
    Flag& optional(Binder b) { optional_value = std::move(b); return *this; }
};

/// A tool's flags in --help order, grouped under section headings.
class Table
{
  public:
    /// `title` opens --help (it may span lines).
    explicit Table(std::string title) : title_(std::move(title)) {}

    /// Lists the flags added from here on under `heading` (it may span
    /// lines).
    void section(std::string h) { headings_.emplace_back(flags_.size(), h); }

    /// Adds a flag; `help` is one line, wrapped to the help column.
    /// `bind` takes its first value, `act` runs once it is parsed.
    /// @throws std::logic_error when a name is already taken (-h and
    ///         --help are taken in every table).
    Flag&
    flag(std::vector<std::string> names, std::string metavar,
         std::string help, Binder bind = {}, Action act = {})
    {
        for (const std::string& name : names)
            if (name == "-h" || name == "--help" || find(name) != nullptr)
                throw std::logic_error("flag table: duplicate name " + name);
        Flag& entry = flags_.emplace_back();
        entry.names = std::move(names);
        entry.metavar = std::move(metavar);
        entry.help = std::move(help);
        if (bind) entry.values.push_back(std::move(bind));
        entry.action = std::move(act);
        return entry;
    }

    /// A switch: no value, just `act`.
    Flag&
    flag(std::vector<std::string> names, std::string help, Action act)
    {
        return flag(std::move(names), "", std::move(help), {}, std::move(act));
    }

    /// Binds every token that is not a flag and does not start with
    /// '-'; without it such a token is an error.
    void positional(Binder bind) { positional_ = std::move(bind); }

    const std::deque<Flag>& entries() const { return flags_; }
    /// The --help text: the title, then each heading and its flags.
    std::string
    usage() const
    {
        std::string out = title_ + "\n";
        std::size_t next = 0;
        for (std::size_t f = 0; f < flags_.size(); ++f) {
            if (next < headings_.size() && headings_[next].first == f)
                out += "\n" + headings_[next++].second + "\n";
            else if (f == 0)
                out += "\n";
            append_entry(out, flags_[f]);
        }
        return out;
    }

    /// Parses argv[1..argc) into the bound fields; false on -h/--help.
    /// @throws Error naming the flag it could not parse.
    bool
    parse(int argc, const char* const* argv) const
    {
        for (int i = 1; i < argc; ++i) {
            const std::string token = argv[i];
            if (token == "-h" || token == "--help") return false;
            const Flag* entry = find(token);
            const auto bind = [&](const Binder& binder, const char* value) {
                try {
                    binder(value);
                } catch (const std::exception& e) {
                    throw Error(token + ": " + e.what());
                }
            };
            if (entry == nullptr) {
                if (!positional_ || (!token.empty() && token[0] == '-'))
                    throw Error("unknown flag: " + token);
                bind(positional_, argv[i]);
                continue;
            }
            for (const Binder& value : entry->values) {
                if (i + 1 >= argc) throw Error("missing value for " + token);
                bind(value, argv[++i]);
            }
            if (entry->optional_value && i + 1 < argc && argv[i + 1][0] != '-')
                bind(entry->optional_value, argv[++i]);
            if (entry->action) entry->action();
        }
        return true;
    }

    /// parse(), printing --help and exiting 0, or the error and exiting 1.
    void
    parse_or_exit(int argc, const char* const* argv) const
    {
        try {
            if (parse(argc, argv)) return;
        } catch (const Error& e) {
            usage_error(e.what());
        }
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
    }

  private:
    /// Names and metavar fill the first 25 columns; help wraps at 72.
    static constexpr std::size_t kHelpColumn = 25;
    static constexpr std::size_t kWidth = 72;

    const Flag*
    find(const std::string& name) const
    {
        for (const Flag& entry : flags_)
            for (const std::string& n : entry.names)
                if (n == name) return &entry;
        return nullptr;
    }

    static void
    append_entry(std::string& out, const Flag& entry)
    {
        std::string line = " ";
        for (const std::string& name : entry.names)
            line += (line.size() > 1 ? ", " : " ") + name;
        if (!entry.metavar.empty()) line += " " + entry.metavar;
        if (line.size() >= kHelpColumn) {
            out += line + "\n";
            line.clear();
        }
        line.resize(kHelpColumn - 1, ' ');
        for (std::size_t at = 0; at < entry.help.size();) {
            const std::size_t end =
                std::min(entry.help.find(' ', at), entry.help.size());
            if (line.size() > kHelpColumn &&
                line.size() + 1 + (end - at) > kWidth) {
                out += line + "\n";
                line.assign(kHelpColumn - 1, ' ');
            }
            line.append(1, ' ').append(entry.help, at, end - at);
            at = end + 1;
        }
        out += line + "\n";
    }

    std::string title_;
    std::deque<Flag> flags_; ///< a deque: flag() hands out references
    std::vector<std::pair<std::size_t, std::string>> headings_;
    Binder positional_;
};

} // namespace buckwild::tools::flags

#endif // BUCKWILD_TOOLS_FLAGS_H
