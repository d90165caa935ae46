#include "service/job.hpp"

#include <stdexcept>
#include <utility>

namespace qucp {

namespace detail {

void JobState::finish(JobResult r) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    result = std::move(r);
    status = JobStatus::Done;
  }
  cv.notify_all();
}

void JobState::fail(std::string message) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    error = std::move(message);
    status = JobStatus::Failed;
  }
  cv.notify_all();
}

void JobState::set_running() {
  {
    std::lock_guard<std::mutex> lock(mutex);
    status = JobStatus::Running;
  }
  cv.notify_all();
}

}  // namespace detail

const detail::JobState& JobHandle::state() const {
  if (!state_) throw std::logic_error("JobHandle: empty handle");
  return *state_;
}

JobStatus JobHandle::status() const {
  const detail::JobState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.status;
}

bool JobHandle::finished() const {
  const JobStatus s = status();
  return s == JobStatus::Done || s == JobStatus::Failed;
}

void JobHandle::wait() const {
  const detail::JobState& s = state();
  std::unique_lock<std::mutex> lock(s.mutex);
  s.cv.wait(lock, [&s] {
    return s.status == JobStatus::Done || s.status == JobStatus::Failed;
  });
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  const detail::JobState& s = state();
  std::unique_lock<std::mutex> lock(s.mutex);
  return s.cv.wait_for(lock, timeout, [&s] {
    return s.status == JobStatus::Done || s.status == JobStatus::Failed;
  });
}

const JobResult& JobHandle::result() const {
  wait();
  const detail::JobState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.status == JobStatus::Failed) {
    throw std::runtime_error(s.error);
  }
  return *s.result;
}

std::string JobHandle::error() const {
  const detail::JobState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.error;
}

}  // namespace qucp
