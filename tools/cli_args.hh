/**
 * @file
 * Range-checked integer flags for dnastore and dnastored.
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/args.hh"

namespace dnastore::tools
{

/**
 * --name as an integer in [lo, hi], @p fallback when absent.  Throws
 * std::invalid_argument when malformed or out of range, so a port of
 * 70000 is a usage error rather than a silent wrap to 4464.
 */
inline std::int64_t
getIntInRange(const ArgParser &args, const std::string &name,
              std::int64_t fallback, std::int64_t lo, std::int64_t hi)
{
    const std::int64_t value = args.getInt(name, fallback);
    if (value < lo || value > hi)
        throw std::invalid_argument(
            "--" + name + " must be in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], got '" + args.get(name) + "'");
    return value;
}

} // namespace dnastore::tools
