/**
 * @file
 * Minimal status-message helpers in the gem5 style: inform / warn for user
 * status, fatal for unusable configuration, panic for internal invariant
 * violations.
 */
#ifndef BUCKWILD_UTIL_LOGGING_H
#define BUCKWILD_UTIL_LOGGING_H

#include <atomic>
#include <cstddef>
#include <string>

namespace buckwild {

/// Normal operating status, printed to stderr as "info: ...".
void inform(const std::string& msg);

/// Something suspicious but survivable, printed as "warn: ...".
void warn(const std::string& msg);

/**
 * warn() for events a remote peer can cause at will, such as a malformed
 * frame: the first kLimit are printed, the rest are left to the caller's
 * counter, so no peer can make a process write a line per frame it sends.
 */
class BoundedWarn
{
  public:
    static constexpr std::size_t kLimit = 8;

    /// Thread-safe.
    void warn(const std::string& msg);

  private:
    std::atomic<std::size_t> count_{0};
};

/// User error (bad configuration / arguments): throws std::runtime_error.
[[noreturn]] void fatal(const std::string& msg);

/// Internal bug: throws std::logic_error.
[[noreturn]] void panic(const std::string& msg);

} // namespace buckwild

#endif // BUCKWILD_UTIL_LOGGING_H
