// Synchronization objects shared by software and hardware threads.
//
// These are the *functional* primitives: value queues and counters with
// waiter lists. They consume no simulated time themselves — the OS-port
// adapters (rt/os.hpp) charge the delegate-thread/syscall costs around
// them, so a hardware thread and a software thread touching the same
// mailbox pay their own, different, entry costs.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/units.hpp"

namespace vmsls::rt {

/// Bounded FIFO of 64-bit values — the ReconOS-style mailbox that carries
/// kernel arguments, pointers, and completion tokens between threads.
class Mailbox {
 public:
  explicit Mailbox(unsigned depth, std::string name = "mbox");

  /// Takes the next value; `taker` fires immediately if data is available,
  /// otherwise when a producer delivers.
  void get(sim::Callback<i64> taker);

  /// Deposits a value; `done` fires immediately if there is room (or a
  /// waiting consumer), otherwise when space frees up.
  void put(i64 value, sim::Callback<> done);

  /// Non-blocking probe used by tests and the run executive.
  bool try_get(i64& out);

  std::size_t size() const noexcept { return items_.size(); }
  unsigned depth() const noexcept { return depth_; }
  std::size_t waiting_takers() const noexcept { return takers_.size(); }
  std::size_t waiting_putters() const noexcept { return putters_.size(); }
  const std::string& name() const noexcept { return name_; }

 private:
  void drain_putters();

  unsigned depth_;
  std::string name_;
  std::deque<i64> items_;
  std::deque<sim::Callback<i64>> takers_;
  std::deque<std::pair<i64, sim::Callback<>>> putters_;
};

/// Counting semaphore.
class Semaphore {
 public:
  explicit Semaphore(u64 initial = 0, std::string name = "sem");

  void wait(sim::Callback<> acquired);
  void post();

  u64 count() const noexcept { return count_; }
  std::size_t waiters() const noexcept { return waiters_.size(); }
  const std::string& name() const noexcept { return name_; }

 private:
  u64 count_;
  std::string name_;
  std::deque<sim::Callback<>> waiters_;
};

/// Mutex = binary semaphore initialized to 1, named for interface clarity.
class Mutex {
 public:
  explicit Mutex(std::string name = "mutex") : sem_(1, std::move(name)) {}
  void lock(sim::Callback<> acquired) { sem_.wait(std::move(acquired)); }
  void unlock() { sem_.post(); }
  bool locked() const noexcept { return sem_.count() == 0; }

 private:
  Semaphore sem_;
};

/// Rendezvous barrier for `parties` threads.
class Barrier {
 public:
  explicit Barrier(unsigned parties, std::string name = "barrier");

  /// The callbacks of all parties fire when the last one arrives.
  void arrive(sim::Callback<> released);

  unsigned parties() const noexcept { return parties_; }
  std::size_t arrived() const noexcept { return waiting_.size(); }

 private:
  unsigned parties_;
  std::string name_;
  std::vector<sim::Callback<>> waiting_;
};

}  // namespace vmsls::rt
