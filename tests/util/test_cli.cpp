// Unit tests for the CLI argument parser.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/cli.hpp"

namespace dnsctx {
namespace {

[[nodiscard]] CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> v{tokens};
  return parse_cli(std::span<const char* const>{v.data(), v.size()});
}

TEST(Cli, PositionalsKeptInOrder) {
  const auto args = parse({"simulate", "extra"});
  ASSERT_EQ(args.positionals.size(), 2u);
  EXPECT_EQ(args.positionals[0], "simulate");
  EXPECT_EQ(args.positionals[1], "extra");
}

TEST(Cli, OptionWithSeparateValue) {
  const auto args = parse({"--houses", "40"});
  EXPECT_EQ(args.option("houses"), "40");
  EXPECT_TRUE(args.positionals.empty());
}

TEST(Cli, OptionWithEqualsValue) {
  const auto args = parse({"--seed=99"});
  EXPECT_EQ(args.option("seed"), "99");
}

TEST(Cli, BareFlagAndTrailingFlag) {
  const auto args = parse({"--verbose", "--csv", "--quiet"});
  EXPECT_TRUE(args.has_flag("verbose"));  // next token is an option → flag
  EXPECT_TRUE(args.has_flag("csv"));
  EXPECT_TRUE(args.has_flag("quiet"));    // nothing after → flag
}

TEST(Cli, FlagFollowedByPositionalConsumesIt) {
  const auto args = parse({"--out", "/tmp/x", "analyze"});
  EXPECT_EQ(args.option("out"), "/tmp/x");
  ASSERT_EQ(args.positionals.size(), 1u);
  EXPECT_EQ(args.positionals[0], "analyze");
}

TEST(Cli, EmptyValueViaEquals) {
  const auto args = parse({"--name="});
  EXPECT_EQ(args.option("name"), "");
}

TEST(Cli, DoubleDashAloneIsPositional) {
  const auto args = parse({"--"});
  ASSERT_EQ(args.positionals.size(), 1u);
  EXPECT_EQ(args.positionals[0], "--");
}

TEST(Cli, IntOptionParsing) {
  const auto args = parse({"--houses", "40"});
  EXPECT_EQ(args.int_option_or("houses", 7), 40);
  EXPECT_EQ(args.int_option_or("missing", 7), 7);
  const auto bad = parse({"--houses", "many"});
  EXPECT_THROW((void)bad.int_option_or("houses", 0), std::runtime_error);
}

TEST(Cli, IntOptionRangeNamesTheFlag) {
  const auto args = parse({"--mib", "-1", "--exit", "0", "--ok", "3"});
  EXPECT_EQ(args.int_option_in("ok", 9, 1, 4095), 3);
  EXPECT_EQ(args.int_option_in("missing", 9, 1, 4095), 9);
  const auto message = [](const auto& call) {
    try {
      (void)call();
    } catch (const std::runtime_error& e) {
      return std::string{e.what()};
    }
    return std::string{"accepted"};
  };
  EXPECT_EQ(message([&] { return args.int_option_in("mib", 1, 1, 4095); }),
            "--mib must be in [1, 4095], got -1");
  EXPECT_EQ(message([&] { return args.int_option_in("exit", 1, 1); }),
            "--exit must be at least 1, got 0");
}

TEST(Cli, UnknownKeyDetection) {
  const auto args = parse({"--houses", "40", "--tpyo", "--out=x"});
  const auto unknown = args.unknown_keys({"houses", "out"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(Cli, MisuseNamesTheOffendingFlag) {
  const std::set<std::string> valued{"json", "shards"};
  const std::set<std::string> bare{"metrics"};
  EXPECT_EQ(parse({"80", "--json", "x", "--metrics"}).misuse(valued, bare, 1), std::nullopt);
  EXPECT_EQ(parse({"--houses", "3"}).misuse(valued, bare, 4), "unknown option --houses");
  EXPECT_EQ(parse({"--tpyo"}).misuse(valued, bare, 4), "unknown option --tpyo");
  EXPECT_EQ(parse({"--shards"}).misuse(valued, bare, 4), "--shards expects a value");
  EXPECT_EQ(parse({"--metrics", "40"}).misuse(valued, bare, 4), "--metrics takes no value");
  EXPECT_EQ(parse({"2", "1", "x"}).misuse(valued, bare, 2), "unexpected argument 'x'");
}

TEST(Cli, OptionOrFallback) {
  const auto args = parse({});
  EXPECT_EQ(args.option_or("x", "fallback"), "fallback");
  EXPECT_FALSE(args.option("x").has_value());
}

}  // namespace
}  // namespace dnsctx
