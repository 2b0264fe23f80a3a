#ifndef CSD_UTIL_CHECK_H_
#define CSD_UTIL_CHECK_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace csd::internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* condition,
                                     const std::string& extra) {
  std::fprintf(stderr, "csd check failed at %s:%d: %s%s%s\n", file, line,
               condition, extra.empty() ? "" : " — ", extra.c_str());
  std::abort();
}

}  // namespace csd::internal

/// Aborts the process when a programming-contract condition does not hold.
/// Used for invariants inside algorithms; recoverable conditions (bad input
/// files, out-of-range user parameters) go through Status instead.
#define CSD_CHECK(condition)                                              \
  do {                                                                    \
    if (!(condition)) {                                                   \
      ::csd::internal::CheckFailed(__FILE__, __LINE__, #condition, "");   \
    }                                                                     \
  } while (false)

#define CSD_CHECK_MSG(condition, msg)                                      \
  do {                                                                     \
    if (!(condition)) {                                                    \
      std::ostringstream _csd_oss;                                         \
      _csd_oss << msg;                                                     \
      ::csd::internal::CheckFailed(__FILE__, __LINE__, #condition,         \
                                   _csd_oss.str());                        \
    }                                                                      \
  } while (false)

/// Debug-only contract check; compiled out in release builds.
#ifndef NDEBUG
#define CSD_DCHECK(condition) CSD_CHECK(condition)
#else
#define CSD_DCHECK(condition) \
  do {                        \
  } while (false)
#endif

namespace csd {

/// Narrows a CSR offset (a running entry count) to the uint32_t the CSR
/// arrays store, aborting instead of wrapping: a wrapped offset would
/// silently alias another POI's neighbor list.
inline uint32_t CheckedOffset32(size_t value) {
  CSD_CHECK_MSG(value <= UINT32_MAX,
                "CSR offset " << value << " overflows uint32_t");
  return static_cast<uint32_t>(value);
}

}  // namespace csd

#endif  // CSD_UTIL_CHECK_H_
