#include "util/args.hh"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace dnastore
{

namespace
{

/** Parse all of @p text: "4x", "" and out-of-range values fail. */
template <typename T>
bool
parseWhole(const std::string &text, T &value)
{
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    return error == std::errc() && stop == end;
}

} // namespace

ArgParser::ArgParser(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals.push_back(std::move(arg));
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            options[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options[arg] = argv[++i];
        } else {
            options[arg] = "true";
        }
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return options.count(name) > 0;
}

std::string
ArgParser::get(const std::string &name, const std::string &fallback) const
{
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
}

std::int64_t
ArgParser::getInt(const std::string &name, std::int64_t fallback) const
{
    const auto it = options.find(name);
    if (it == options.end())
        return fallback;
    std::int64_t value = 0;
    if (!parseWhole(it->second, value))
        throw std::invalid_argument("--" + name +
                                    " expects an integer, got '" +
                                    it->second + "'");
    return value;
}

std::size_t
ArgParser::getCount(const std::string &name, std::size_t fallback) const
{
    const std::int64_t value =
        getInt(name, static_cast<std::int64_t>(fallback));
    if (value < 0)
        throw std::invalid_argument("--" + name +
                                    " expects a non-negative count, got '" +
                                    get(name) + "'");
    return static_cast<std::size_t>(value);
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    const auto it = options.find(name);
    if (it == options.end())
        return fallback;
    double value = 0.0;
    if (!parseWhole(it->second, value))
        throw std::invalid_argument("--" + name + " expects a number, got '" +
                                    it->second + "'");
    return value;
}

bool
ArgParser::getBool(const std::string &name, bool fallback) const
{
    const auto it = options.find(name);
    if (it == options.end())
        return fallback;
    return it->second == "true" || it->second == "1" || it->second == "yes";
}

} // namespace dnastore
