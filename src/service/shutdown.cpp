#include "service/shutdown.hpp"

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>

namespace phlogon::svc {

namespace {

std::atomic<bool> gRequested{false};
int gPipe[2] = {-1, -1};

void onSignal(int) {
    gRequested.store(true, std::memory_order_release);
    if (gPipe[1] >= 0) {
        const char b = 1;
        // A full pipe already guarantees a pending wakeup; the result is
        // irrelevant either way (and must not clobber errno unguarded).
        const int savedErrno = errno;
        [[maybe_unused]] const ssize_t r = ::write(gPipe[1], &b, 1);
        errno = savedErrno;
    }
}

}  // namespace

ShutdownSignal::ShutdownSignal() {
    if (::pipe(gPipe) == 0) {
        ::fcntl(gPipe[0], F_SETFL, O_NONBLOCK);
        ::fcntl(gPipe[1], F_SETFL, O_NONBLOCK);
        ::fcntl(gPipe[0], F_SETFD, FD_CLOEXEC);
        ::fcntl(gPipe[1], F_SETFD, FD_CLOEXEC);
    }
}

ShutdownSignal& ShutdownSignal::instance() {
    static ShutdownSignal s;
    return s;
}

void ShutdownSignal::install() {
    static bool installed = [] {
        struct sigaction sa = {};
        sa.sa_handler = onSignal;
        ::sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;  // frame reads keep their own EINTR loops anyway
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);
        return true;
    }();
    (void)installed;
}

bool ShutdownSignal::requested() const { return gRequested.load(std::memory_order_acquire); }

bool ShutdownSignal::wait(int timeoutMs) const {
    if (requested()) return true;
    if (gPipe[0] < 0) return false;
    for (;;) {
        struct pollfd pfd = {gPipe[0], POLLIN, 0};
        const int r = ::poll(&pfd, 1, timeoutMs);
        if (r < 0 && errno == EINTR) {
            if (requested()) return true;
            continue;
        }
        if (r <= 0) return requested();
        return requested();
    }
}

void ShutdownSignal::request() { onSignal(0); }

}  // namespace phlogon::svc
