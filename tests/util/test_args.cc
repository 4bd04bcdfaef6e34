/**
 * @file
 * Tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include "util/args.hh"

namespace dnastore
{
namespace
{

ArgParser
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm)
{
    const auto args = parse({"--size=42", "--name=abc"});
    EXPECT_EQ(args.getInt("size", 0), 42);
    EXPECT_EQ(args.get("name"), "abc");
}

TEST(ArgParser, SpaceForm)
{
    const auto args = parse({"--size", "42"});
    EXPECT_EQ(args.getInt("size", 0), 42);
}

TEST(ArgParser, BareFlagIsTrue)
{
    const auto args = parse({"--verbose"});
    EXPECT_TRUE(args.getBool("verbose"));
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_FALSE(args.getBool("quiet"));
}

TEST(ArgParser, Positionals)
{
    const auto args = parse({"input.bin", "--x=1", "output.bin"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.bin");
    EXPECT_EQ(args.positional()[1], "output.bin");
}

TEST(ArgParser, Defaults)
{
    const auto args = parse({});
    EXPECT_EQ(args.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 2.5), 2.5);
    EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(ArgParser, MalformedNumberThrows)
{
    const auto args = parse({"--n=abc", "--t=4x", "--r=0.5x", "--e="});
    EXPECT_THROW(args.getInt("n", 0), std::invalid_argument);
    EXPECT_THROW(args.getDouble("n", 0), std::invalid_argument);
    // Trailing garbage is malformed, not a number followed by noise.
    EXPECT_THROW(args.getInt("t", 0), std::invalid_argument);
    EXPECT_THROW(args.getCount("t", 0), std::invalid_argument);
    EXPECT_THROW(args.getDouble("r", 0), std::invalid_argument);
    EXPECT_THROW(args.getInt("e", 0), std::invalid_argument);
}

TEST(ArgParser, CountRejectsNegativeValues)
{
    const auto args = parse({"--threads=-1", "--batch=3", "--zero=0"});
    EXPECT_THROW(args.getCount("threads", 1), std::invalid_argument);
    EXPECT_EQ(args.getCount("batch", 1), 3u);
    EXPECT_EQ(args.getCount("zero", 1), 0u);
    EXPECT_EQ(args.getCount("missing", 7), 7u);
    EXPECT_EQ(args.getInt("threads", 1), -1);
}

TEST(ArgParser, DoubleParsing)
{
    const auto args = parse({"--rate=0.125"});
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0), 0.125);
}

TEST(ArgParser, BoolValueForms)
{
    const auto args = parse({"--a=true", "--b=1", "--c=yes", "--d=false"});
    EXPECT_TRUE(args.getBool("a"));
    EXPECT_TRUE(args.getBool("b"));
    EXPECT_TRUE(args.getBool("c"));
    EXPECT_FALSE(args.getBool("d"));
}

} // namespace
} // namespace dnastore
