#include "glove/serve/window.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "glove/obs/metrics.hpp"

namespace glove::serve {

WindowAccumulator::WindowAccumulator(double window_min)
    : window_min_{window_min} {
  if (!(window_min > 0.0 && std::isfinite(window_min))) {
    throw std::invalid_argument{"window length must be positive and finite"};
  }
}

void WindowAccumulator::add(const cdr::CdrEvent& event) {
  static const obs::Counter c_late = obs::counter("serve.events_late");
  if (!started_) {
    started_ = true;
    window_begin_ = std::floor(event.time_min / window_min_) * window_min_;
    watermark_ = event.time_min;
  } else {
    if (event.time_min < window_begin_) c_late.add();
    if (event.time_min > watermark_) watermark_ = event.time_min;
  }
  buffer_.push_back(event);
}

bool WindowAccumulator::window_ready() const noexcept {
  return started_ && watermark_ >= window_begin_ + window_min_;
}

ClosedWindow WindowAccumulator::close_window() {
  static const obs::Counter c_closed = obs::counter("serve.windows_closed");
  ClosedWindow closed;
  closed.bounds = WindowBounds{window_begin_, window_begin_ + window_min_};
  if (!(closed.bounds.end_min > closed.bounds.begin_min)) {
    std::ostringstream message;
    message << "event time " << window_begin_
            << " min is too large for the " << window_min_
            << "-minute window grid: a window starting there ends where it "
               "begins";
    throw std::invalid_argument{message.str()};
  }
  // Split by event time, preserving arrival order in both halves: the
  // kept remainder must replay in the same order it arrived or a later
  // window's fingerprints would depend on when earlier windows closed.
  std::vector<cdr::CdrEvent> kept;
  for (const cdr::CdrEvent& event : buffer_) {
    if (event.time_min < closed.bounds.end_min) {
      closed.events.push_back(event);
    } else {
      kept.push_back(event);
    }
  }
  buffer_ = std::move(kept);
  if (closed.events.empty() && !buffer_.empty()) {
    // Every buffered event lies at or past this window's end: close the
    // whole empty run up to the window of the earliest one, so a gap in
    // event time costs one close, not one per window.  The run ends on
    // the grid at begin + j windows, j >= 1, at or before that event; the
    // comparison undoes a division that rounded j up.
    double earliest = buffer_.front().time_min;
    for (const cdr::CdrEvent& event : buffer_) {
      earliest = std::min(earliest, event.time_min);
    }
    const double begin = closed.bounds.begin_min;
    double windows = std::floor((earliest - begin) / window_min_);
    if (begin + windows * window_min_ > earliest) windows -= 1.0;
    if (windows > 1.0) closed.bounds.end_min = begin + windows * window_min_;
  }
  window_begin_ = closed.bounds.end_min;
  c_closed.add();
  return closed;
}

ClosedWindow WindowAccumulator::close_final() {
  ClosedWindow closed;
  closed.bounds = WindowBounds{window_begin_, started_ ? watermark_ : 0.0};
  closed.events = std::move(buffer_);
  buffer_.clear();
  return closed;
}

}  // namespace glove::serve
