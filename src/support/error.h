#pragma once

#include <stdexcept>
#include <string>

/// \file error.h
/// Error-handling primitives shared by every pbmg module.
///
/// Following the C++ Core Guidelines we report precondition violations and
/// unrecoverable state through exceptions rather than error codes; hot loops
/// never throw, so the cost is confined to setup and configuration paths.

namespace pbmg {

/// Base class for all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller passes an argument that violates a documented
/// precondition (wrong grid size, invalid accuracy index, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a configuration file or JSON document cannot be parsed or
/// fails semantic validation.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Thrown when a numerical routine detects a state it cannot recover from
/// (non-positive-definite pivot in Cholesky, divergent iteration, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& message);
/// A literal message takes this overload, so a check builds no
/// std::string where it is written: the per-width kernel TUs
/// (grid/packed_kernels_w*.cpp), built with their own ISA flags, must
/// instantiate no inline code that other TUs share.
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const char* message);
}  // namespace detail

}  // namespace pbmg

/// Validates a precondition; throws pbmg::InvalidArgument on failure.
/// Active in all build types: tuning correctness depends on these checks and
/// they guard only cold paths.
#define PBMG_CHECK(expr, message)                                           \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::pbmg::detail::throw_check_failure(#expr, __FILE__, __LINE__,        \
                                          (message));                      \
    }                                                                       \
  } while (false)

/// Heavyweight numerical invariant check (per-cell coefficient positivity,
/// diagonal dominance of assembled rows, ...).  Too costly for release hot
/// paths, so it compiles to nothing unless the build defines
/// PBMG_ASSERTIONS (cmake -DPBMG_ASSERTIONS=ON; CI runs the full suite in
/// that configuration at -O2).  The disabled form still parses `expr` so
/// assertions cannot bit-rot.
#if defined(PBMG_ASSERTIONS)
#define PBMG_NUM_ASSERT(expr, message) PBMG_CHECK(expr, message)
#else
#define PBMG_NUM_ASSERT(expr, message)                                      \
  do {                                                                      \
    if (false && !(expr)) {                                                 \
      ::pbmg::detail::throw_check_failure(#expr, __FILE__, __LINE__,        \
                                          (message));                      \
    }                                                                       \
  } while (false)
#endif
