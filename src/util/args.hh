/**
 * @file
 * Tiny command-line argument parser used by the example programs and
 * bench binaries ("--key=value" and "--flag" forms).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dnastore
{

/**
 * Parses argv into named options plus positional arguments.
 *
 * Accepted forms: "--key=value", "--key value", and bare "--flag"
 * (treated as "--flag=true").  Anything not starting with "--" is
 * positional.
 */
class ArgParser
{
  public:
    ArgParser(int argc, const char *const *argv);

    /** True if --name was supplied at all. */
    bool has(const std::string &name) const;

    /** String option with a default. */
    std::string
    get(const std::string &name, const std::string &fallback = "") const;

    /** Integer option with a default; throws unless all of it parses. */
    std::int64_t getInt(const std::string &name, std::int64_t fallback) const;

    /** getInt for counts: a negative value throws instead of wrapping. */
    std::size_t getCount(const std::string &name, std::size_t fallback) const;

    /** Floating-point option with a default; throws unless all parses. */
    double getDouble(const std::string &name, double fallback) const;

    /** Boolean flag: present without value, "true"/"1" => true. */
    bool getBool(const std::string &name, bool fallback = false) const;

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const { return positionals; }

  private:
    std::map<std::string, std::string> options;
    std::vector<std::string> positionals;
};

} // namespace dnastore

