#include "sim/worker_pool.h"

#include <algorithm>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace tcsim {

namespace {

/** Yield rounds a waiter polls before it parks.  A tick's serial
 *  phases take a few microseconds, so a worker that finished its
 *  share usually sees the next batch while still yielding. */
constexpr int kSpinYields = 64;

/** Block until @p a no longer holds @p old; returns the new value. */
template <typename T>
T
await_change(const std::atomic<T>& a, T old)
{
    for (int i = 0; i < kSpinYields; ++i) {
        T v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
        std::this_thread::yield();
    }
    for (;;) {
        a.wait(old, std::memory_order_acquire);
        T v = a.load(std::memory_order_acquire);
        if (v != old)
            return v;
    }
}

/**
 * Move the calling pool thread to the @p index-th CPU after @p home
 * among those it may run on, then allow all of them again: a starting
 * place, not a pin, so the kernel still balances under load.  Left to
 * itself the kernel sometimes starts several new workers on one CPU,
 * where yield-spinning workers take turns instead of running in
 * parallel, and a run stays that way (batches 2-3x slower).
 */
void
start_spread(int home, int index)
{
#ifdef __linux__
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0)
        return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    auto at = std::find(cpus.begin(), cpus.end(), home);
    size_t pos = at == cpus.end() ? 0 : static_cast<size_t>(at - cpus.begin());
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[(pos + static_cast<size_t>(index)) % cpus.size()], &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0)
        pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
#else
    (void)home;
    (void)index;
#endif
}

}  // namespace

WorkerPool::WorkerPool(int threads)
{
    int extra = threads > 1 ? threads - 1 : 0;
    errors_.resize(static_cast<size_t>(extra) + 1);
    threads_.reserve(static_cast<size_t>(extra));
#ifdef __linux__
    const int home = sched_getcpu();
#else
    const int home = 0;
#endif
    for (int i = 1; i <= extra; ++i) {
        threads_.emplace_back([this, home, i] {
            start_spread(home, i);
            worker_main(i);
        });
    }
}

WorkerPool::~WorkerPool()
{
    stop_ = true;
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (std::thread& t : threads_)
        t.join();
}

void
WorkerPool::for_each_worker(const std::function<void(int)>& fn)
{
    if (threads_.empty()) {
        fn(0);
        return;
    }
    fn_ = &fn;
    running_.store(static_cast<int>(threads_.size()),
                   std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    // The caller is worker 0.  Its exception must not escape before
    // the pool threads are done with fn (a caller-owned temporary).
    try {
        fn(0);
    } catch (...) {
        errors_[0] = std::current_exception();
    }
    // Acquiring the final zero orders every worker's writes (each
    // decrement is a release in one read-modify-write chain) before
    // the caller's next serial phase.
    for (int left = running_.load(std::memory_order_acquire); left != 0;)
        left = await_change(running_, left);
    fn_ = nullptr;
    std::exception_ptr first;
    for (std::exception_ptr& e : errors_) {
        if (e && !first)
            first = e;
        e = nullptr;
    }
    if (first)
        std::rethrow_exception(first);
}

void
WorkerPool::worker_main(int index)
{
    uint32_t seen = 0;
    for (;;) {
        seen = await_change(epoch_, seen);
        if (stop_)
            return;
        try {
            (*fn_)(index);
        } catch (...) {
            errors_[static_cast<size_t>(index)] = std::current_exception();
        }
        if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            running_.notify_one();
    }
}

}  // namespace tcsim
