// Scoped environment override for the tests: sets `name` to `value` for the
// object's lifetime and restores the previous value (or unsets the variable)
// when the scope ends, including when it unwinds through an exception. The
// knobs it steers are re-read on every call (cc_thread_count and
// active_kernel in linalg/kernels.h), so a scoped set steers everything run
// inside the block.
#pragma once

#include <cstdlib>
#include <string>

namespace cclique {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

}  // namespace cclique
