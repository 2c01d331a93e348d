// Error handling helpers.
//
// Library invariants are enforced with BERNOULLI_CHECK, which throws
// bernoulli::Error (derived from std::runtime_error) with the failing
// expression and location. Checks guard API misuse and data-structure
// invariants; they are always on — sparse-format corruption is far more
// expensive to debug than the branch is to execute.
#pragma once

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/types.hpp"

namespace bernoulli {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail

/// Narrows a size or offset computed in 64 bits to index_t. index_t is
/// 32-bit, so products such as blocks·R·C, nnz·stride or off + k·step are
/// formed in 64 bits first; one that does not fit throws bernoulli::Error
/// naming `what` instead of wrapping.
inline index_t checked_index(long long v, const char* what) {
  if (v < 0 || v > std::numeric_limits<index_t>::max()) {
    std::ostringstream os;
    os << "index overflow: " << what << " = " << v
       << " does not fit the 32-bit index type";
    throw Error(os.str());
  }
  return static_cast<index_t>(v);
}

}  // namespace bernoulli

/// Throws bernoulli::Error when `expr` is false. Extra stream-style message
/// may be appended: BERNOULLI_CHECK(i < n) << is illegal; use the _MSG form.
#define BERNOULLI_CHECK(expr)                                             \
  do {                                                                    \
    if (!(expr))                                                          \
      ::bernoulli::detail::check_failed(#expr, __FILE__, __LINE__, "");   \
  } while (0)

#define BERNOULLI_CHECK_MSG(expr, msg)                                    \
  do {                                                                    \
    if (!(expr)) {                                                        \
      std::ostringstream os_;                                             \
      os_ << msg;                                                         \
      ::bernoulli::detail::check_failed(#expr, __FILE__, __LINE__,        \
                                        os_.str());                       \
    }                                                                     \
  } while (0)
