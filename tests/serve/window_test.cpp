#include "glove/serve/window.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace glove::serve {
namespace {

cdr::CdrEvent event(cdr::UserId user, double time_min) {
  return cdr::CdrEvent{user, time_min, geo::LatLon{6.8, -5.3}};
}

TEST(WindowAccumulator, RejectsNonPositiveOrNonFiniteWindow) {
  EXPECT_THROW(WindowAccumulator{0.0}, std::invalid_argument);
  EXPECT_THROW(WindowAccumulator{-10.0}, std::invalid_argument);
  EXPECT_THROW(WindowAccumulator{std::numeric_limits<double>::infinity()},
               std::invalid_argument);
  EXPECT_THROW(WindowAccumulator{std::numeric_limits<double>::quiet_NaN()},
               std::invalid_argument);
}

TEST(WindowAccumulator, FirstEventAlignsWindowToMultiples) {
  // Event at t=1500 with 1440-minute windows lands in [1440, 2880): the
  // window grid is absolute, not anchored at the first event, so a
  // restarted daemon over the same stream closes identical windows.
  WindowAccumulator window{1440.0};
  window.add(event(1, 1500.0));
  EXPECT_TRUE(window.started());
  EXPECT_FALSE(window.window_ready());
  window.add(event(2, 2879.9));
  EXPECT_FALSE(window.window_ready());  // watermark still inside
  window.add(event(3, 2880.0));
  ASSERT_TRUE(window.window_ready());
  const ClosedWindow closed = window.close_window();
  EXPECT_DOUBLE_EQ(closed.bounds.begin_min, 1440.0);
  EXPECT_DOUBLE_EQ(closed.bounds.end_min, 2880.0);
  ASSERT_EQ(closed.events.size(), 2u);
  EXPECT_EQ(closed.events[0].user, 1u);
  EXPECT_EQ(closed.events[1].user, 2u);
  EXPECT_EQ(window.pending_events(), 1u);  // the t=2880 event
}

TEST(WindowAccumulator, SplitPreservesArrivalOrder) {
  WindowAccumulator window{100.0};
  window.add(event(5, 10.0));
  window.add(event(3, 150.0));  // next window
  window.add(event(7, 20.0));   // still this window, arrived later
  window.add(event(1, 99.0));
  ASSERT_TRUE(window.window_ready());
  const ClosedWindow closed = window.close_window();
  ASSERT_EQ(closed.events.size(), 3u);
  EXPECT_EQ(closed.events[0].user, 5u);
  EXPECT_EQ(closed.events[1].user, 7u);
  EXPECT_EQ(closed.events[2].user, 1u);
}

TEST(WindowAccumulator, EventTimeGapYieldsOneEmptyWindow) {
  // A silent stretch closes as one empty window, not a stall: the
  // publisher skips it and the stream stays aligned to the grid.
  WindowAccumulator window{100.0};
  window.add(event(1, 50.0));
  window.add(event(2, 350.0));  // skips windows [100,200) and [200,300)
  ASSERT_TRUE(window.window_ready());
  EXPECT_EQ(window.close_window().events.size(), 1u);  // [0, 100)
  ASSERT_TRUE(window.window_ready());
  const ClosedWindow gap = window.close_window();
  EXPECT_TRUE(gap.events.empty());
  EXPECT_DOUBLE_EQ(gap.bounds.begin_min, 100.0);
  EXPECT_DOUBLE_EQ(gap.bounds.end_min, 300.0);
  EXPECT_FALSE(window.window_ready());  // [300, 400) open
  EXPECT_EQ(window.pending_events(), 1u);
}

TEST(WindowAccumulator, FarFutureEventClosesTheGapAtOnce) {
  // 1e12 minutes lies about 8.3e9 two-hour windows past t = 50; the gap
  // before it is one close, so the accumulator is ready at most twice.
  WindowAccumulator window{120.0};
  window.add(event(1, 50.0));
  window.add(event(2, 1e12));
  int closes = 0;
  std::size_t closed_events = 0;
  for (; closes < 3 && window.window_ready(); ++closes) {
    closed_events += window.close_window().events.size();
  }
  EXPECT_LE(closes, 2);
  EXPECT_FALSE(window.window_ready());
  EXPECT_EQ(closed_events, 1u);  // the t = 50 event
  const ClosedWindow last = window.close_final();
  ASSERT_EQ(last.events.size(), 1u);
  EXPECT_EQ(last.events[0].user, 2u);
  EXPECT_LE(last.bounds.begin_min, 1e12);
  EXPECT_GT(last.bounds.begin_min + 120.0, 1e12);
}

TEST(WindowAccumulator, RefusesAnEventTimeTheGridCannotPass) {
  // At 1e300 minutes a 1-minute step rounds away: begin + 1 == begin, so
  // the window could never close.
  WindowAccumulator window{1.0};
  window.add(event(1, 1e300));
  ASSERT_TRUE(window.window_ready());
  try {
    (void)window.close_window();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("event time 1e+300 min"), std::string::npos)
        << message;
    EXPECT_NE(message.find("1-minute window"), std::string::npos) << message;
  }
}

TEST(WindowAccumulator, LateEventsFoldIntoNextClose) {
  WindowAccumulator window{100.0};
  window.add(event(1, 120.0));  // window [100, 200)
  window.add(event(2, 30.0));   // late: before the current window
  window.add(event(3, 200.0));
  ASSERT_TRUE(window.window_ready());
  const ClosedWindow closed = window.close_window();
  // The late event still publishes (time < end); arrival order kept.
  ASSERT_EQ(closed.events.size(), 2u);
  EXPECT_EQ(closed.events[0].user, 1u);
  EXPECT_EQ(closed.events[1].user, 2u);
}

TEST(WindowAccumulator, CloseFinalReturnsEverythingBuffered) {
  WindowAccumulator window{100.0};
  window.add(event(1, 10.0));
  window.add(event(2, 50.0));
  EXPECT_FALSE(window.window_ready());
  const ClosedWindow final_window = window.close_final();
  EXPECT_EQ(final_window.events.size(), 2u);
  EXPECT_EQ(window.pending_events(), 0u);
  // An un-started accumulator drains to an empty window.
  WindowAccumulator empty{100.0};
  EXPECT_TRUE(empty.close_final().events.empty());
}

}  // namespace
}  // namespace glove::serve
