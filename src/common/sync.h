// Annotated synchronization primitives: the only way FliX code takes a lock.
//
// Every mutex and spinlock in src/ goes through the wrappers in this header
// (enforced by tools/lint_flix.py in CI), so Clang's Thread Safety Analysis
// can prove at compile time what the TSan jobs could previously only catch
// dynamically: that every guarded field is read and written under its lock,
// that lock pre/postconditions hold across function boundaries, and that no
// code path acquires locks against the global order. Under GCC (which has no
// thread-safety attributes) the annotations expand to nothing and the
// wrappers are zero-cost shims over the std primitives.
//
// Enabled by any clang build (-Wthread-safety -Wthread-safety-beta, see the
// top-level CMakeLists.txt); FLIX_STRICT promotes the warnings to errors.
// The negative-compile tests under tests/tsa/ prove the analysis actually
// rejects a guarded-field access without the lock and a lock-order
// inversion.
//
// Lock-order hierarchy (DESIGN.md section 8). A thread holding a lock may
// only acquire locks of a *later* rank:
//
//   engine            StrategyMigrator::mutex_
//     │
//   partition handle  IndexHandle::lock_
//     │
//   cache             QueryCache::mutex_, StreamedList::mutex_
//     │
//   metrics           MetricsRegistry::mutex_, WorkloadProfiler::info_mutex_,
//                     TraceCollector::mutex_, SlowQueryLog::mutex_,
//                     the trace-log stream mutex
//
// The ranks are materialized as the never-locked tag mutexes in
// flix::lockorder below; each real mutex declares ACQUIRED_AFTER its own
// rank tag and ACQUIRED_BEFORE the next, so -Wthread-safety-beta turns a
// lock-order inversion anywhere in the codebase into a compile error via
// the transitive acquired-before graph.
//
// State that only a single-writer phase changes (Build, Load, an offline
// landmark rebuild) takes no lock at all: the framework tables, the
// landmark cache and the FlixStats are fixed while queries run, and the
// per-query traversal totals live in the atomics of WorkloadProfiler and
// the metrics registry. A lock belongs only to state that changes under
// live queries — today the partition indexes the adaptive ISS swaps.
#ifndef FLIX_COMMON_SYNC_H_
#define FLIX_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Thread Safety Analysis attribute macros.
//
// The full set from the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Conventions:
//   * GUARDED_BY(mu) on every field a lock protects; PT_GUARDED_BY(mu) when
//     the pointer itself is unguarded but the pointee is not.
//   * REQUIRES(mu) on functions that must be entered with `mu` held;
//     ACQUIRE/RELEASE on functions that take or drop it.
//   * EXCLUDES(mu) on public entry points that take `mu` themselves, so a
//     re-entrant call from a callback is flagged instead of deadlocking.
//   * NO_THREAD_SAFETY_ANALYSIS is an escape hatch of last resort and MUST
//     carry an adjacent "// SAFETY: ..." comment explaining why the
//     unchecked access is sound (enforced by tools/lint_flix.py).
// ---------------------------------------------------------------------------

#if defined(__clang__) && (!defined(SWIG))
#define FLIX_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define FLIX_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op on GCC/MSVC
#endif

#define CAPABILITY(x) FLIX_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define SCOPED_CAPABILITY FLIX_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define GUARDED_BY(x) FLIX_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define PT_GUARDED_BY(x) FLIX_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define REQUIRES(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

#define RELEASE_GENERIC(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS \
  FLIX_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace flix {

// Annotated std::mutex. Lowercase lock()/unlock() make it BasicLockable so
// CondVar (std::condition_variable_any) can wait on it directly; FliX code
// uses the RAII wrappers below, never the raw methods (lint-enforced style).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable spelling, for std::condition_variable_any.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// Annotated test-and-set spinlock: one uncontended atomic exchange to
// acquire, for critical sections of a few instructions (IndexHandle's
// swap in flix/meta_document.h). Never hold across a blocking call.
class CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;  // C++20 default-initializes atomic_flag to clear
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Lock() ACQUIRE() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void Unlock() RELEASE() { flag_.clear(std::memory_order_release); }
  bool TryLock() TRY_ACQUIRE(true) {
    return !flag_.test_and_set(std::memory_order_acquire);
  }

 private:
  std::atomic_flag flag_;
};

// Annotated std::shared_mutex for read-mostly structures (reserved for the
// flixd daemon's session tables; nothing in the engine needs it yet).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive lock over a Mutex (the std::lock_guard replacement).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive lock over a SpinLock.
class SCOPED_CAPABILITY SpinLockHolder {
 public:
  explicit SpinLockHolder(SpinLock& lock) ACQUIRE(lock) : lock_(lock) {
    lock_.Lock();
  }
  ~SpinLockHolder() RELEASE() { lock_.Unlock(); }

  SpinLockHolder(const SpinLockHolder&) = delete;
  SpinLockHolder& operator=(const SpinLockHolder&) = delete;

 private:
  SpinLock& lock_;
};

// RAII shared (reader) lock over a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII exclusive (writer) lock over a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable that waits on a flix::Mutex. The predicate-taking
// std::condition_variable overloads are deliberately absent: the analysis
// cannot see a lambda's captured guarded reads, so callers write the
// predicate as an explicit while-loop in the locked scope, where every
// guarded access is visible to the analysis:
//
//   MutexLock lock(mutex_);
//   while (!done_) cv_.Wait(mutex_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // All waits require `mu` held on entry and hold it again on return (the
  // internal unlock/relock is invisible to callers, as with std waits).
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    return cv_.wait_for(mu, timeout);
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

// Lock-order rank tags (see the header comment for the hierarchy). These
// mutexes are never locked at runtime — they exist so real mutexes anywhere
// in the codebase can declare their rank (ACQUIRED_AFTER their own tag,
// ACQUIRED_BEFORE the next) and the analysis can connect mutexes that never
// appear in one translation unit through the transitive
// acquired-before graph. Mutexes of the same rank are mutually unordered;
// never acquire two of them together.
namespace lockorder {

inline Mutex kEngine;
inline Mutex kPartitionHandle ACQUIRED_AFTER(kEngine);
inline Mutex kCache ACQUIRED_AFTER(kPartitionHandle);
inline Mutex kMetrics ACQUIRED_AFTER(kCache);

}  // namespace lockorder

}  // namespace flix

#endif  // FLIX_COMMON_SYNC_H_
