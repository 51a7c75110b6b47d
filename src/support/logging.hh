/**
 * @file
 * Diagnostic helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - an internal invariant was violated (a cams bug); aborts.
 * fatal()  - the user asked for something impossible (bad machine
 *            description, malformed input graph); exits with code 1.
 * check()  - an internal invariant was violated inside a recoverable
 *            search phase; throws InternalError so the pipeline driver
 *            can classify the failure and keep the process alive.
 * warn()   - something suspicious but survivable happened.
 * inform() - plain status output.
 *
 * Build-mode policy: none of these are compiled out, ever. Unlike
 * <cassert>, cams_assert and cams_check deliberately ignore NDEBUG --
 * the invariants they guard (placement bounds, reservation ownership,
 * rollback bookkeeping) are exactly the ones whose violation turns
 * into out-of-bounds indexing in Release builds, so disabling them
 * where they matter most would be backwards. The condition is always
 * evaluated; keep side effects out of it anyway.
 *
 * The one place CAMS honours NDEBUG is an oracle, not a guard: debug
 * builds re-derive the assigner's running §4.2 counts by rescanning
 * the graph and the MRT at every query and cams_check the two
 * (assign/assigner.cc). That scan costs exactly what the counts
 * exist to save, so Release builds leave it out.
 *
 * Choosing between the three failure macros:
 *  - cams_fatal: bad *input* (user error). Process exit is the API.
 *  - cams_assert: broken invariant where no enclosing recovery exists
 *    (precondition of a public entry point, corrupted result after a
 *    phase committed). Abort preserves the core dump.
 *  - cams_check: broken invariant inside the assignment/scheduling
 *    search, where pipeline/driver catches InternalError, records a
 *    FailureKind::InternalInvariant, and either retries at the next II
 *    or degrades (see pipeline/driver.hh).
 */

#ifndef CAMS_SUPPORT_LOGGING_HH
#define CAMS_SUPPORT_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace cams
{

/**
 * A recoverable internal-invariant violation, thrown by cams_check.
 *
 * Deriving from std::runtime_error keeps what() usable as the
 * FailureKind::InternalInvariant detail string; the file/line prefix
 * is baked into the message by checkFailImpl.
 */
class InternalError : public std::runtime_error
{
  public:
    explicit InternalError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** Terminates with an abort after printing an internal-error message. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Throws InternalError carrying a file:line-prefixed message. */
[[noreturn]] void checkFailImpl(const char *file, int line,
                                const std::string &msg);

/** Terminates with exit(1) after printing a user-error message. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Prints a warning to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

/** Prints a status message to stderr. */
void informImpl(const std::string &msg);

namespace detail
{

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    formatInto(os, rest...);
}

/** Concatenates the stream representations of all arguments. */
template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

} // namespace cams

#define cams_panic(...) \
    ::cams::panicImpl(__FILE__, __LINE__, ::cams::detail::concat(__VA_ARGS__))

#define cams_fatal(...) \
    ::cams::fatalImpl(__FILE__, __LINE__, ::cams::detail::concat(__VA_ARGS__))

#define cams_warn(...) \
    ::cams::warnImpl(__FILE__, __LINE__, ::cams::detail::concat(__VA_ARGS__))

#define cams_inform(...) \
    ::cams::informImpl(::cams::detail::concat(__VA_ARGS__))

/** Panics when an internal invariant does not hold. */
#define cams_assert(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cams::panicImpl(__FILE__, __LINE__,                           \
                ::cams::detail::concat("assertion '", #cond, "' failed. ", \
                                       ##__VA_ARGS__));                     \
        }                                                                   \
    } while (0)

/** Throws InternalError when a recoverable invariant does not hold. */
#define cams_check(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cams::checkFailImpl(__FILE__, __LINE__,                       \
                ::cams::detail::concat("check '", #cond, "' failed. ",      \
                                       ##__VA_ARGS__));                     \
        }                                                                   \
    } while (0)

#endif // CAMS_SUPPORT_LOGGING_HH
