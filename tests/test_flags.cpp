/**
 * @file
 * Tests for tools/flags.h, the flag table the buckwild_* tools parse
 * their command lines with: every binder's accepted and rejected
 * tokens, the arities the tools use, error messages that name the flag,
 * and the generated --help.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flags.h"

namespace buckwild {
namespace {

namespace flags = tools::flags;

/// Parses `args` (argv[0] supplied) through `table`.
bool
parse(const flags::Table& table, std::vector<const char*> args)
{
    args.insert(args.begin(), "tool");
    return table.parse(static_cast<int>(args.size()), args.data());
}

/// The message parse() fails with, or "" when it succeeds.
std::string
parse_error(const flags::Table& table, std::vector<const char*> args)
{
    try {
        parse(table, std::move(args));
    } catch (const flags::Error& e) {
        return e.what();
    }
    return "";
}

/// Binds `token` through `binder`; true when it was accepted.
bool
accepts(const flags::Binder& binder, const std::string& token)
{
    try {
        binder(token);
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

TEST(Flags, CountAcceptsDecimalCounts)
{
    std::uint64_t wide = 0;
    EXPECT_TRUE(accepts(flags::count(wide), "0"));
    EXPECT_TRUE(accepts(flags::count(wide), "18446744073709551615"));
    EXPECT_EQ(wide, 18446744073709551615ull);
    EXPECT_TRUE(accepts(flags::count(wide), "007"));
    EXPECT_EQ(wide, 7u);
    std::uint32_t narrow = 0;
    EXPECT_TRUE(accepts(flags::count(narrow), "4294967295"));
    EXPECT_EQ(narrow, 4294967295u);
}

TEST(Flags, CountRejectsEverythingButDigits)
{
    std::size_t field = 5;
    for (const char* bad : {"", "-1", "+1", "2O", "1e3", "0x10", " 1", "1 ",
                            "1.0", "18446744073709551616"})
        EXPECT_FALSE(accepts(flags::count(field), bad)) << bad;
    EXPECT_EQ(field, 5u) << "a rejected token leaves the field alone";
    std::uint32_t narrow = 0;
    EXPECT_FALSE(accepts(flags::count(narrow), "4294967296"));
    EXPECT_FALSE(accepts(flags::count(field, 1), "0"));
    EXPECT_TRUE(accepts(flags::count(field, 1), "1"));
}

TEST(Flags, RealAcceptsFiniteNumbersOnly)
{
    double d = 0.0;
    for (const char* good : {"0", "-1.5", "0.25", "1e-3", ".5", "2"})
        EXPECT_TRUE(accepts(flags::real(d), good)) << good;
    EXPECT_EQ(d, 2.0);
    for (const char* bad : {"", "nan", "inf", "-inf", "1.5x", "1e999",
                            "0x1p3", "+1"})
        EXPECT_FALSE(accepts(flags::real(d), bad)) << bad;
    float f = 0.0f;
    EXPECT_TRUE(accepts(flags::real(f), "0.15"));
    EXPECT_EQ(f, 0.15f);
    EXPECT_FALSE(accepts(flags::real(f), "1e300")) << "overflows a float";
}

TEST(Flags, PortTextChoiceParsedAndList)
{
    int port = -1;
    EXPECT_TRUE(accepts(flags::port(port), "0"));
    EXPECT_TRUE(accepts(flags::port(port), "65535"));
    EXPECT_EQ(port, 65535);
    EXPECT_FALSE(accepts(flags::port(port), "65536"));
    EXPECT_FALSE(accepts(flags::port(port), "-1"));

    std::optional<std::string> path;
    EXPECT_TRUE(accepts(flags::text(path), "-"));
    EXPECT_EQ(path, "-");

    enum class Loss { kLogistic, kHinge } loss = Loss::kLogistic;
    const flags::Binder choice = flags::choice(
        loss, {{"logistic", Loss::kLogistic}, {"hinge", Loss::kHinge}});
    EXPECT_TRUE(accepts(choice, "hinge"));
    EXPECT_EQ(loss, Loss::kHinge);
    EXPECT_FALSE(accepts(choice, "Hinge"));

    // parsed() takes the library's parsers: optional-returning (like
    // simd::parse_impl) or throwing.
    int level = 0;
    const auto small = [](const std::string& t) -> std::optional<int> {
        if (t == "one") return 1;
        return std::nullopt;
    };
    EXPECT_TRUE(accepts(flags::parsed(level, small), "one"));
    EXPECT_EQ(level, 1);
    EXPECT_FALSE(accepts(flags::parsed(level, small), "two"));
    std::optional<int> maybe;
    EXPECT_TRUE(accepts(flags::parsed(maybe, small), "one"));
    EXPECT_EQ(maybe, 1);

    std::vector<std::uint64_t> list = {9};
    const auto positive = [](const std::string& t) {
        return flags::parse_count(t, 1);
    };
    EXPECT_TRUE(accepts(flags::list(list, positive), "1,16,64"));
    EXPECT_EQ(list, (std::vector<std::uint64_t>{1, 16, 64}));
    for (const char* bad : {"", ",", "1,", ",1", "1,,2", "1,0", "1,x"})
        EXPECT_FALSE(accepts(flags::list(list, positive), bad)) << bad;
    EXPECT_EQ(list, (std::vector<std::uint64_t>{1, 16, 64}));
}

/// A table with every arity the tools use.
struct Cli
{
    std::size_t dim = 0, examples = 0, libsvm_dim = 0;
    double density = 0.0;
    std::string libsvm, out = "merged.trace.json";
    std::vector<std::string> inputs;
    bool csv = false;
    flags::Table table{"tool — a test table"};

    Cli()
    {
        table.section("data:");
        table.flag({"--sparse"}, "N M DENSITY", "three values")
            .value(flags::count(dim))
            .value(flags::count(examples))
            .value(flags::real(density));
        table.flag({"--libsvm"}, "PATH [DIM]", "optional trailing value")
            .value(flags::text(libsvm))
            .optional(flags::count(libsvm_dim));
        table.section("output:");
        table.flag({"-o", "--out"}, "PATH", "an alias", flags::text(out));
        table.flag({"--csv"}, "a switch", flags::set(csv, true));
        table.positional(
            [this](const std::string& path) { inputs.push_back(path); });
    }
};

TEST(Flags, ParsesMultiValueOptionalAliasAndPositionals)
{
    Cli cli;
    EXPECT_TRUE(parse(cli.table, {"a.json", "--sparse", "64", "512", "0.05",
                                  "--libsvm", "x.svm", "300", "-o", "m.json",
                                  "b.json", "--csv"}));
    EXPECT_EQ(cli.dim, 64u);
    EXPECT_EQ(cli.examples, 512u);
    EXPECT_EQ(cli.density, 0.05);
    EXPECT_EQ(cli.libsvm, "x.svm");
    EXPECT_EQ(cli.libsvm_dim, 300u);
    EXPECT_EQ(cli.out, "m.json");
    EXPECT_TRUE(cli.csv);
    EXPECT_EQ(cli.inputs, (std::vector<std::string>{"a.json", "b.json"}));

    // The optional value is skipped when the next token is a flag, and
    // the long alias binds the same field.
    Cli other;
    EXPECT_TRUE(parse(other.table, {"--libsvm", "y.svm", "--out", "n.json"}));
    EXPECT_EQ(other.libsvm, "y.svm");
    EXPECT_EQ(other.libsvm_dim, 0u);
    EXPECT_EQ(other.out, "n.json");
    EXPECT_FALSE(other.csv);

    // --help stops the parse.
    Cli help;
    EXPECT_FALSE(parse(help.table, {"--help", "--csv"}));
    EXPECT_FALSE(help.csv);
    EXPECT_FALSE(parse(help.table, {"-h"}));
}

TEST(Flags, ErrorsNameTheFlag)
{
    Cli cli;
    EXPECT_EQ(parse_error(cli.table, {"--bogus"}), "unknown flag: --bogus");
    EXPECT_EQ(parse_error(cli.table, {"--sparse", "64", "512"}),
              "missing value for --sparse");
    EXPECT_EQ(parse_error(cli.table, {"-o"}), "missing value for -o");
    EXPECT_EQ(parse_error(cli.table, {"--sparse", "2O", "1", "0.1"}),
              "--sparse: expected a decimal count, got '2O'");
    EXPECT_EQ(parse_error(cli.table, {"--sparse", "1", "1", "nan"}),
              "--sparse: expected a finite real number, got 'nan'");
    EXPECT_EQ(parse_error(cli.table, {"--libsvm", "x", "-1"}),
              "unknown flag: -1")
        << "a token starting with '-' is never an optional value";
    // A required value is taken as is, so a negative count reaches its
    // binder and is rejected there.
    EXPECT_EQ(parse_error(cli.table, {"--sparse", "-1", "1", "0.1"}),
              "--sparse: expected a decimal count, got '-1'");

    flags::Table closed("no positionals");
    EXPECT_EQ(parse_error(closed, {"stray"}), "unknown flag: stray");
}

TEST(Flags, RejectsARepeatedName)
{
    Cli cli;
    EXPECT_THROW(cli.table.flag({"--csv"}, "", "again"), std::logic_error);
    EXPECT_THROW(cli.table.flag({"--new", "-o"}, "", "alias clash"),
                 std::logic_error);
    EXPECT_THROW(cli.table.flag({"--help"}, "", "built in"),
                 std::logic_error);
    EXPECT_NO_THROW(cli.table.flag({"--new"}, "", "fresh"));
}

TEST(Flags, UsageListsEveryEntryUnderItsSection)
{
    Cli cli;
    const std::string usage = cli.table.usage();
    EXPECT_EQ(usage.rfind("tool — a test table\n", 0), 0u);
    for (const flags::Flag& entry : cli.table.entries())
        for (const std::string& name : entry.names)
            EXPECT_NE(usage.find(name), std::string::npos) << name;
    EXPECT_NE(usage.find("\ndata:\n  --sparse N M DENSITY   three values\n"),
              std::string::npos)
        << usage;
    EXPECT_NE(usage.find("\noutput:\n  -o, --out PATH"), std::string::npos);
    EXPECT_LT(usage.find("--libsvm PATH [DIM]"), usage.find("output:"));

    // Long help wraps under the help column; a long label gets its own
    // line.
    flags::Table wide("wide");
    wide.flag({"--require-cross-process"}, "",
              "exit 1 unless some trace id appears in at least two "
              "processes (CI assertion)");
    EXPECT_EQ(wide.usage(),
              "wide\n\n"
              "  --require-cross-process\n"
              "                         exit 1 unless some trace id "
              "appears in at least\n"
              "                         two processes (CI assertion)\n");
}

} // namespace
} // namespace buckwild
