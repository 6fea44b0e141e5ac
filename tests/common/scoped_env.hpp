#pragma once
// RAII PHLOGON_THREADS override for tests and benchmark rows that compare
// thread counts; parallelFor re-reads the variable at every call.

#include <cstdlib>
#include <optional>
#include <string>

namespace phlogon::testutil {

struct ScopedThreadsEnv {
    explicit ScopedThreadsEnv(const char* value) {
        if (const char* old = std::getenv("PHLOGON_THREADS")) saved_ = old;
        setenv("PHLOGON_THREADS", value, 1);
    }
    ~ScopedThreadsEnv() {
        if (saved_)
            setenv("PHLOGON_THREADS", saved_->c_str(), 1);
        else
            unsetenv("PHLOGON_THREADS");
    }
    std::optional<std::string> saved_;
};

}  // namespace phlogon::testutil
