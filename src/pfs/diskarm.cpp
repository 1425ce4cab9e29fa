#include "pfs/diskarm.hpp"

#include <iterator>
#include <limits>

namespace pfs {

DiskArm::DiskArm(simkit::Engine& eng, const hw::DiskParams& params,
                 bool scan)
    : eng_(eng), model_(params), scan_(scan) {
  // Disk-arm instruments aggregate over all arms in the simulation — the
  // paper's seek-vs-transfer argument is machine-wide, not per-spindle.
  if (metrics::Registry* r = metrics::current()) {
    m_seeks_ = &r->counter("pfs.disk.seeks");
    m_seek_s_ = &r->histogram("pfs.disk.seek_s");
    m_transfer_s_ = &r->histogram("pfs.disk.transfer_s");
    m_queue_wait_s_ = &r->histogram("pfs.disk.queue_wait_s");
  }
}

simkit::Task<void> DiskArm::serve(std::uint64_t phys, std::uint64_t len,
                                  hw::AccessKind kind) {
  const simkit::Time t_arrive = eng_.now();
  co_await Acquire{*this, phys};
  hw::AccessBreakdown bd;
  const simkit::Duration t =
      model_.access(phys, len, kind, m_seek_s_ ? &bd : nullptr);
  ++services_;
  if (m_seek_s_) {
    m_queue_wait_s_->observe(eng_.now() - t_arrive);
    m_transfer_s_->observe(bd.transfer);
    if (bd.seek > 0.0) {
      m_seeks_->inc();
      m_seek_s_->observe(bd.seek);
    }
  }
  co_await eng_.delay(t);
  release();
}

void DiskArm::enqueue(std::uint64_t phys, std::coroutine_handle<> h) {
  if (scan_) {
    by_pos_.emplace(std::pair{phys, next_seq_++}, h);
  } else {
    fifo_.push_back(h);
  }
}

std::coroutine_handle<> DiskArm::pop_next() {
  if (!scan_) {
    // FIFO: oldest arrival.
    const auto h = fifo_[fifo_head_++];
    if (fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    } else if (fifo_head_ >= 64 && fifo_head_ * 2 >= fifo_.size()) {
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
    return h;
  }
  // SCAN: nearest request at/above the head when sweeping up (at/below
  // when sweeping down), the oldest arrival among equal positions;
  // reverse at the edge when nothing remains ahead.
  const std::uint64_t head = model_.head_position();
  const auto up = by_pos_.lower_bound({head, 0});
  const bool any_up = up != by_pos_.end();
  const bool any_down = by_pos_.begin()->first.first <= head;
  if (sweep_up_ && !any_up) sweep_up_ = false;
  if (!sweep_up_ && !any_down) sweep_up_ = true;
  auto next = up;
  if (!sweep_up_) {
    // Highest position <= head, then its oldest arrival.
    const std::uint64_t pos = std::prev(by_pos_.upper_bound(
        {head, std::numeric_limits<std::uint64_t>::max()}))->first.first;
    next = by_pos_.lower_bound({pos, 0});
  }
  const auto h = next->second;
  by_pos_.erase(next);
  return h;
}

void DiskArm::release() {
  if (queue_length() == 0) {
    busy_ = false;
    return;
  }
  eng_.schedule_at(eng_.now(), pop_next());
}

}  // namespace pfs
