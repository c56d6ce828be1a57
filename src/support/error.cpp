#include "support/error.h"

#include <sstream>

namespace pbmg::detail {

void throw_check_failure(const char* expr, const char* file, int line,
                         const std::string& message) {
  std::ostringstream oss;
  oss << message << " [check `" << expr << "` failed at " << file << ':'
      << line << ']';
  throw InvalidArgument(oss.str());
}

void throw_check_failure(const char* expr, const char* file, int line,
                         const char* message) {
  throw_check_failure(expr, file, line, std::string(message));
}

}  // namespace pbmg::detail
