#ifndef COLSCOPE_TESTS_SCOPED_FORCE_SCALAR_H_
#define COLSCOPE_TESTS_SCOPED_FORCE_SCALAR_H_

#include <cstdlib>
#include <optional>
#include <string>

#include "linalg/simd/kernels.h"

namespace colscope::linalg::simd {

/// Sets COLSCOPE_FORCE_SCALAR to `value` for one scope and re-resolves
/// dispatch, as a process started with that value would: non-empty pins
/// the scalar table, "" lets dispatch pick the native one. The
/// destructor restores the variable and re-resolves again, so a test
/// leaves dispatch as the environment it ran under chose it.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(const char* value) {
    if (const char* old = std::getenv(kVar)) saved_ = old;
    setenv(kVar, value, 1);
    ResetDispatchForTesting();
  }
  ~ScopedForceScalar() {
    if (saved_.has_value()) {
      setenv(kVar, saved_->c_str(), 1);
    } else {
      unsetenv(kVar);
    }
    ResetDispatchForTesting();
  }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  static constexpr const char* kVar = "COLSCOPE_FORCE_SCALAR";
  std::optional<std::string> saved_;
};

}  // namespace colscope::linalg::simd

#endif  // COLSCOPE_TESTS_SCOPED_FORCE_SCALAR_H_
