#include "util/logging.h"

#include <iostream>
#include <stdexcept>

namespace buckwild {

void
inform(const std::string& msg)
{
    std::cerr << "info: " << msg << '\n';
}

void
warn(const std::string& msg)
{
    std::cerr << "warn: " << msg << '\n';
}

void
BoundedWarn::warn(const std::string& msg)
{
    const std::size_t n = count_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n < kLimit)
        buckwild::warn(msg);
    else if (n == kLimit)
        buckwild::warn(msg + " (further warnings like this are only counted)");
}

void
fatal(const std::string& msg)
{
    throw std::runtime_error("fatal: " + msg);
}

void
panic(const std::string& msg)
{
    throw std::logic_error("panic: " + msg);
}

} // namespace buckwild
