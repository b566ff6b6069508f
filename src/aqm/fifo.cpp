#include "aqm/fifo.hpp"

#include <utility>

namespace elephant::aqm {

bool FifoQueue::admit(net::Packet& p) {
  if (bytes_ + p.size > limit_bytes_) {
    ++stats_.dropped_overflow;
    stats_.bytes_dropped += p.size;
    trace_drop(p, /*early=*/false);
    return false;
  }
  bytes_ += p.size;
  ++stats_.enqueued;
  stats_.bytes_enqueued += p.size;
  p.enqueue_time = now();
  trace_enqueue(p);
  return true;
}

bool FifoQueue::enqueue(net::Packet&& p) {
  if (!admit(p)) return false;
  queue_.push_back(std::move(p));
  return true;
}

QueueDisc::CutThrough FifoQueue::cut_through(net::Packet& p) {
  if (!queue_.empty()) return CutThrough::kDeclined;
  if (!admit(p)) return CutThrough::kDropped;
  bytes_ -= p.size;  // dequeued at once, as dequeue() would account it
  ++stats_.dequeued;
  return CutThrough::kSend;
}

std::optional<net::Packet> FifoQueue::dequeue() {
  if (queue_.empty()) return std::nullopt;
  net::Packet p = std::move(queue_.front());
  queue_.pop_front();
  bytes_ -= p.size;
  ++stats_.dequeued;
  return p;
}

void FifoQueue::save(sim::SnapshotWriter& w) const {
  QueueDisc::save(w);
  w.put_u64(bytes_);
  w.put_u64(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) w.put_pod(queue_[i]);
}

void FifoQueue::load(sim::SnapshotReader& r) {
  QueueDisc::load(r);
  bytes_ = static_cast<std::size_t>(r.get_u64());
  const std::uint64_t n = r.get_u64();
  queue_.clear();
  for (std::uint64_t i = 0; i < n; ++i) queue_.push_back(r.get<net::Packet>());
}

}  // namespace elephant::aqm
