#include "service/intake.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace qucp::detail {

namespace {

/// Process-wide ordinal of intake-using threads, assigned on first use.
std::atomic<std::size_t> g_intake_thread_counter{0};

std::size_t intake_thread_ordinal() {
  thread_local const std::size_t ordinal =
      g_intake_thread_counter.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

SubmitRing::SubmitRing(std::size_t capacity) {
  capacity_ = std::bit_ceil(std::max<std::size_t>(capacity, 2));
  mask_ = capacity_ - 1;
  cells_ = std::vector<Cell>(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool SubmitRing::try_push(const JobPtr& job) {
  std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (diff == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.value = job;
        cell.seq.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS failure reloaded pos; retry against the new ticket.
    } else if (diff < 0) {
      return false;  // the cell still holds an unconsumed lap: full
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool SubmitRing::try_pop(JobPtr& out) {
  const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  Cell& cell = cells_[pos & mask_];
  const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
  if (seq != pos + 1) return false;  // empty, or head ticket not published
  out = std::move(cell.value);
  cell.value.reset();
  dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
  cell.seq.store(pos + capacity_, std::memory_order_release);
  return true;
}

ShardedIntake::ShardedIntake(std::size_t num_shards,
                             std::size_t shard_capacity) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardedIntake: num_shards must be >= 1");
  }
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<SubmitRing>(shard_capacity));
  }
}

std::size_t ShardedIntake::home_shard() const noexcept {
  return intake_thread_ordinal() % shards_.size();
}

std::size_t ShardedIntake::drain(std::vector<JobPtr>& out) {
  std::size_t drained = 0;
  JobPtr job;
  for (auto& shard : shards_) {
    while (shard->try_pop(job)) {
      out.push_back(std::move(job));
      ++drained;
    }
  }
  return drained;
}

}  // namespace qucp::detail
