// Tests for the auxiliary instrumentation: end-to-end flow statistics and
// the frame tracer.
#include <gtest/gtest.h>

#include <memory>

#include "net/flow_stats.hpp"
#include "net/network.hpp"
#include "net/tracer.hpp"

namespace manet {
namespace {

TEST(FlowStats, TracksDeliveryRatioAndDelayOneHop) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 1;
  cfg.grid_cols = 2;
  cfg.num_flows = 0;
  net::Network net(cfg);

  net::EndToEndStats stats(net.simulator());
  auto sink = stats.wrap(net.sink(0));
  net.mac(1).set_listener(&stats);

  // Submit 100 packets at a sustainable rate via the recording sink.
  std::uint64_t id = 1;
  std::function<void()> feeder = [&] {
    sink.submit(1, 512, id);
    if (++id <= 100) net.simulator().after(10 * kMillisecond, feeder);
  };
  net.simulator().at(0, feeder);
  net.run_until(seconds_to_time(3));

  EXPECT_EQ(stats.submitted(), 100u);
  EXPECT_EQ(stats.delivered(), 100u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
  // One-hop exchange latency: at least the exchange airtime (~3.5 ms),
  // well under a second at this rate.
  EXPECT_GT(stats.delay().mean(), 0.003);
  EXPECT_LT(stats.delay().max(), 0.5);
}

TEST(FlowStats, MultiHopDeliveryViaAodvListener) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 1;
  cfg.grid_cols = 3;
  cfg.num_flows = 0;
  cfg.routing = net::RoutingKind::kAodv;
  net::Network net(cfg);

  net::EndToEndStats stats(net.simulator());
  auto sink = stats.wrap(net.sink(0));
  net.router(2)->set_listener(&stats);

  std::uint64_t id = 1;
  std::function<void()> feeder = [&] {
    sink.submit(2, 512, id);
    if (++id <= 50) net.simulator().after(20 * kMillisecond, feeder);
  };
  net.simulator().at(0, feeder);
  net.run_until(seconds_to_time(3));

  EXPECT_GT(stats.delivered(), 45u);
  EXPECT_GT(stats.delivery_ratio(), 0.9);
  // Two hops cost roughly twice the one-hop latency.
  EXPECT_GT(stats.delay().mean(), 0.006);
}

TEST(FrameTracer, RecordsReadableLines) {
  net::ScenarioConfig cfg;
  cfg.grid_rows = 1;
  cfg.grid_cols = 2;
  cfg.num_flows = 0;
  net::Network net(cfg);

  net::FrameTracer tracer(1);
  net.mac(1).add_observer(&tracer);
  net.mac(0).enqueue(1, 512, 42);
  net.run_until(seconds_to_time(1));

  // RTS, CTS, DATA, ACK.
  ASSERT_EQ(tracer.total_frames(), 4u);
  const std::string text = tracer.render();
  EXPECT_NE(text.find("RTS"), std::string::npos);
  EXPECT_NE(text.find("CTS"), std::string::npos);
  EXPECT_NE(text.find("DATA"), std::string::npos);
  EXPECT_NE(text.find("ACK"), std::string::npos);
  EXPECT_NE(text.find("0->1"), std::string::npos);
  EXPECT_NE(text.find("1->0"), std::string::npos);
  EXPECT_NE(text.find("len=512B"), std::string::npos);
}

TEST(FrameTracer, BoundsRetainedLines) {
  net::FrameTracer tracer(0, /*max_lines=*/10);
  mac::DcfParams params;
  const mac::Frame data = mac::make_data(0, 1, 512, 1, params);
  for (int i = 0; i < 100; ++i) tracer.on_frame(data, i * 1000, i * 1000 + 10);
  EXPECT_EQ(tracer.total_frames(), 100u);
  EXPECT_EQ(tracer.lines().size(), 10u);
}

}  // namespace
}  // namespace manet
