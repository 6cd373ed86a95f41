#ifndef LQOLAB_UTIL_CHECK_H_
#define LQOLAB_UTIL_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace lqolab::util {

/// Prints a fatal-error message and aborts. Used by the CHECK macros below;
/// call directly for unconditional failures.
[[noreturn]] inline void FatalError(const char* file, int line,
                                    const std::string& message) {
  std::fprintf(stderr, "FATAL %s:%d: %s\n", file, line, message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace lqolab::util

/// Aborts with a message when `condition` is false. Active in all build
/// modes: the engine has no exceptions, so invariant violations must stop
/// the process rather than corrupt results.
#define LQOLAB_CHECK(condition)                                        \
  do {                                                                 \
    if (!(condition)) {                                                \
      ::lqolab::util::FatalError(__FILE__, __LINE__,                   \
                                 "CHECK failed: " #condition);         \
    }                                                                  \
  } while (0)

/// CHECK with a streamed explanation: LQOLAB_CHECK_MSG(a < b, a << " " << b).
#define LQOLAB_CHECK_MSG(condition, stream_expr)                       \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::ostringstream lqolab_check_os_;                             \
      lqolab_check_os_ << "CHECK failed: " #condition ": "             \
                       << stream_expr;  /* NOLINT */                   \
      ::lqolab::util::FatalError(__FILE__, __LINE__,                   \
                                 lqolab_check_os_.str());              \
    }                                                                  \
  } while (0)

/// Binary comparison checks that print both operands on failure.
#define LQOLAB_CHECK_OP(op, a, b) \
  LQOLAB_CHECK_MSG((a)op(b), "lhs=" << (a) << " rhs=" << (b))
#define LQOLAB_CHECK_EQ(a, b) LQOLAB_CHECK_OP(==, a, b)
#define LQOLAB_CHECK_NE(a, b) LQOLAB_CHECK_OP(!=, a, b)
#define LQOLAB_CHECK_LT(a, b) LQOLAB_CHECK_OP(<, a, b)
#define LQOLAB_CHECK_LE(a, b) LQOLAB_CHECK_OP(<=, a, b)
#define LQOLAB_CHECK_GT(a, b) LQOLAB_CHECK_OP(>, a, b)
#define LQOLAB_CHECK_GE(a, b) LQOLAB_CHECK_OP(>=, a, b)

#ifdef NDEBUG
// Type-checks the condition (so its operands count as used) without
// evaluating it.
#define LQOLAB_DCHECK(condition) \
  do {                           \
    if (false) {                 \
      (void)(condition);         \
    }                            \
  } while (0)
#else
#define LQOLAB_DCHECK(condition) LQOLAB_CHECK(condition)
#endif

#endif  // LQOLAB_UTIL_CHECK_H_
