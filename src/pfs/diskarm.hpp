// pfs/diskarm.hpp — disk arm with FIFO or SCAN (elevator) scheduling.
//
// The I/O-node server queues requests for each disk.  FIFO service (the
// default, and the conservative model used for the paper reproduction)
// seeks wherever the next arrival points; SCAN sweeps the arm across the
// platter serving requests in position order, the classic elevator
// algorithm real file servers used.  `iosim run ablation_scan` quantifies
// the difference on the paper's scattered-access patterns.
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "hw/disk.hpp"
#include "metrics/metrics.hpp"
#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace pfs {

class DiskArm {
 public:
  DiskArm(simkit::Engine& eng, const hw::DiskParams& params, bool scan);
  DiskArm(const DiskArm&) = delete;
  DiskArm& operator=(const DiskArm&) = delete;

  /// Wait for the arm (FIFO or SCAN order), then perform the timed
  /// access.
  simkit::Task<void> serve(std::uint64_t phys, std::uint64_t len,
                           hw::AccessKind kind);

  const hw::DiskModel& model() const noexcept { return model_; }
  /// Fault-injection needs to stretch service times on a live arm.
  hw::DiskModel& mutable_model() noexcept { return model_; }
  std::uint64_t services() const noexcept { return services_; }
  std::size_t queue_length() const noexcept {
    return scan_ ? by_pos_.size() : fifo_.size() - fifo_head_;
  }

 private:
  struct Acquire {
    DiskArm& arm;
    std::uint64_t phys;
    bool await_ready() noexcept {
      if (!arm.busy_) {
        arm.busy_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { arm.enqueue(phys, h); }
    void await_resume() const noexcept {}
  };

  void enqueue(std::uint64_t phys, std::coroutine_handle<> h);
  void release();
  /// Remove and return the next waiter in service order.  Pre: a
  /// waiter is queued.
  std::coroutine_handle<> pop_next();

  simkit::Engine& eng_;
  hw::DiskModel model_;
  bool scan_;
  // Instrument handles, resolved once from the registry installed at
  // construction; all null when metrics are off (the default).
  metrics::Counter* m_seeks_ = nullptr;
  metrics::Histogram* m_seek_s_ = nullptr;
  metrics::Histogram* m_transfer_s_ = nullptr;
  metrics::Histogram* m_queue_wait_s_ = nullptr;
  bool busy_ = false;
  bool sweep_up_ = true;
  std::uint64_t next_seq_ = 0;
  std::uint64_t services_ = 0;
  // FIFO waiters in arrival order; entries before fifo_head_ are served
  // (compacted once they are half the vector).
  std::vector<std::coroutine_handle<>> fifo_;
  std::size_t fifo_head_ = 0;
  // SCAN waiters by (position, arrival seq): within one position the
  // oldest arrival is served first.  Neither container allocates until
  // the first request queues.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::coroutine_handle<>>
      by_pos_;
};

}  // namespace pfs
