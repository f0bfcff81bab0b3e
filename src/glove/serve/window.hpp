// Event-time windowing for the serve pipeline.
//
// Windows are fixed-length, aligned to multiples of the window length
// (the first event picks the containing window), and close on the
// *watermark* — the maximum event time seen — not on wall clock, so a
// replayed file and a live tail of the same bytes close the same windows
// in the same order and the published snapshots match byte for byte.
// Late events (older than the current window's start) are counted and
// still folded into the next closing window: the publisher decides what
// to do with already-published users, not the accumulator.

#ifndef GLOVE_SERVE_WINDOW_HPP
#define GLOVE_SERVE_WINDOW_HPP

#include <vector>

#include "glove/cdr/builder.hpp"

namespace glove::serve {

/// Half-open event-time bounds [begin_min, end_min) of a window.
struct WindowBounds {
  double begin_min = 0.0;
  double end_min = 0.0;
};

/// One closed window: its bounds and the buffered events that belong to
/// it (event time < end_min), in arrival order.
struct ClosedWindow {
  WindowBounds bounds;
  std::vector<cdr::CdrEvent> events;
};

class WindowAccumulator {
 public:
  /// `window_min` must be positive and finite; throws
  /// std::invalid_argument.
  explicit WindowAccumulator(double window_min);

  /// Buffers one event and advances the watermark.
  void add(const cdr::CdrEvent& event);

  /// True when the watermark has reached the current window's end, i.e.
  /// close_window() would produce a complete window.
  [[nodiscard]] bool window_ready() const noexcept;

  /// Closes the current window: returns its bounds plus every buffered
  /// event with time < end (arrival order preserved), then advances to
  /// the next window.  When the current window holds no buffered event,
  /// the whole empty run up to the window of the earliest buffered event
  /// closes as one empty window, so a gap in event time costs one close
  /// however long it is: serve.windows_closed, serve.windows_deferred and
  /// ServeSummary::windows_closed count one close per empty run.  The
  /// publisher skips empty windows.  Throws std::invalid_argument, naming
  /// the event time and the window length, when the grid cannot advance
  /// past the current window (begin + window_min == begin in doubles).
  /// Precondition: window_ready().
  [[nodiscard]] ClosedWindow close_window();

  /// Drain path: returns everything still buffered as a final partial
  /// window [begin, watermark].  Empty events when nothing is buffered.
  [[nodiscard]] ClosedWindow close_final();

  /// True once at least one event was ever added.
  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Max event time seen so far (meaningful once started()).
  [[nodiscard]] double watermark() const noexcept { return watermark_; }

  /// Events currently buffered.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return buffer_.size();
  }

 private:
  double window_min_;
  double window_begin_ = 0.0;
  double watermark_ = 0.0;
  bool started_ = false;
  std::vector<cdr::CdrEvent> buffer_;
};

}  // namespace glove::serve

#endif  // GLOVE_SERVE_WINDOW_HPP
