// Error handling utilities shared by every FARe module.
//
// We follow the C++ Core Guidelines: exceptions for errors that callers can
// reasonably be expected to handle (bad configuration, shape mismatches) and
// FARE_ASSERT for internal invariants whose violation is a programming bug.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace fare {

/// Thrown when user-supplied configuration or inputs are invalid
/// (e.g. a fault density outside [0,1], mismatched matrix shapes).
class InvalidArgument : public std::invalid_argument {
public:
    explicit InvalidArgument(const std::string& what) : std::invalid_argument(what) {}
};

/// Thrown when a simulated hardware resource is exhausted
/// (e.g. more adjacency blocks than available crossbars after removals).
class ResourceError : public std::runtime_error {
public:
    explicit ResourceError(const std::string& what) : std::runtime_error(what) {}
};

/// Value-or-error result for CLI-facing lookups and parsers where a miss is
/// an expected outcome the caller wants to turn into a usage message, not a
/// stack unwind. Exceptions remain the channel for programming errors and
/// invalid configuration deep inside the library.
template <typename T>
class Expected {
public:
    Expected(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
    static Expected failure(std::string message) {
        Expected e;
        e.error_ = std::move(message);
        return e;
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /// Valid only when ok(); throws std::logic_error otherwise (a bug).
    const T& value() const& {
        require();
        return *value_;
    }
    T&& value() && {
        require();
        return std::move(*value_);
    }
    /// Valid only when !ok().
    const std::string& error() const { return error_; }

    /// value() if ok(), otherwise `fallback`.
    T value_or(T fallback) const {
        return ok() ? *value_ : std::move(fallback);
    }

private:
    Expected() = default;
    void require() const {
        if (!ok()) throw std::logic_error("Expected::value() on error: " + error_);
    }

    std::optional<T> value_;
    std::string error_;
};

/// Strict string-to-double parse for CLI arguments: the whole string must be
/// numeric (unlike atof, which silently maps garbage to 0.0).
inline Expected<double> parse_double(const std::string& s) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        return Expected<double>::failure("not a number: '" + s + "'");
    return v;
}

/// Strict decimal-integer parse for CLI arguments and environment knobs:
/// one or more ASCII digits and nothing else (no sign, space, fraction or
/// exponent), with a value in [lo, hi]; lo must not be negative. A fraction,
/// NaN or infinity is an error, never a truncation.
template <std::integral T>
Expected<T> parse_integer(const std::string& s, T lo, T hi = std::numeric_limits<T>::max()) {
    const auto failure = [&] {
        return Expected<T>::failure("'" + s + "' is not an integer in [" + std::to_string(lo) +
                                    ", " + std::to_string(hi) + "]");
    };
    if (s.empty()) return failure();
    const auto max = static_cast<std::uintmax_t>(hi);
    std::uintmax_t value = 0;
    for (const char c : s) {
        if (c < '0' || c > '9') return failure();
        const auto digit = static_cast<std::uintmax_t>(c - '0');
        if (value > (max - digit) / 10) return failure();
        value = value * 10 + digit;
    }
    if (value < static_cast<std::uintmax_t>(lo)) return failure();
    return static_cast<T>(value);
}

/// The integer value `s` of command-line flag `flag` (parse_integer), or
/// InvalidArgument naming the flag.
template <std::integral T>
T parse_flag(const std::string& flag, const std::string& s, T lo,
             T hi = std::numeric_limits<T>::max()) {
    const Expected<T> n = parse_integer(s, lo, hi);
    if (!n) throw InvalidArgument("bad " + flag + ": " + n.error());
    return n.value();
}

/// The positive decimal integer in environment variable `name`, or nullopt
/// while it is unset. Any other value (empty, signed, zero, trailing
/// characters, out of range) throws InvalidArgument naming the variable and
/// the value.
inline std::optional<std::size_t> env_positive_integer(const char* name) {
    const char* env = std::getenv(name);
    if (env == nullptr) return std::nullopt;
    const Expected<std::size_t> value = parse_integer<std::size_t>(env, 1);
    if (!value)
        throw InvalidArgument(std::string(name) + " must be a positive integer, got '" +
                              env + "'");
    return value.value();
}

namespace detail {
[[noreturn]] inline void throw_invalid(const char* expr, const char* file, int line,
                                       const std::string& msg) {
    std::ostringstream os;
    os << "FARE_CHECK failed: (" << expr << ") at " << file << ':' << line;
    if (!msg.empty()) os << " — " << msg;
    throw InvalidArgument(os.str());
}

[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line) {
    std::ostringstream os;
    os << "FARE_ASSERT failed: (" << expr << ") at " << file << ':' << line;
    throw std::logic_error(os.str());
}
}  // namespace detail

}  // namespace fare

/// Validate a user-facing precondition; throws fare::InvalidArgument.
#define FARE_CHECK(expr, msg)                                                        \
    do {                                                                             \
        if (!(expr)) ::fare::detail::throw_invalid(#expr, __FILE__, __LINE__, (msg)); \
    } while (false)

/// Validate an internal invariant; throws std::logic_error (a bug if it fires).
#define FARE_ASSERT(expr)                                                  \
    do {                                                                   \
        if (!(expr)) ::fare::detail::assert_fail(#expr, __FILE__, __LINE__); \
    } while (false)

/// Debug-only precondition for hot loops (kernel inner loops, per-weight
/// overlay fix-ups): full FARE_CHECK in Debug builds, compiled out under
/// NDEBUG (Release / RelWithDebInfo) so the check cost never reaches the
/// training hot path. Use FARE_CHECK for anything reachable from user input
/// on a cold path.
#ifdef NDEBUG
#define FARE_DCHECK(expr, msg) \
    do {                       \
    } while (false)
#else
#define FARE_DCHECK(expr, msg) FARE_CHECK(expr, msg)
#endif
