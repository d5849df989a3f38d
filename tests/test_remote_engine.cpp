// RemoteEngineHandle contract tests: bit-identity of a socket-hop engine
// against its local twin, transport deadlines, and the mapping of transport
// failures onto the grid's existing hung-site resilience path
// (retry/backoff → quarantine → degradation telemetry).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "calib/fit.h"
#include "fleet/fleet.h"
#include "grid/scan_grid.h"
#include "net/remote_engine.h"
#include "scan/floorplan.h"

namespace psnt::net {
namespace {

fleet::FleetConfig small_config() {
  fleet::FleetConfig config;
  config.sites = 4;
  config.samples_per_site = 12;
  config.seed = 91;
  return config;
}

// Count-1 captures through the one engine call, as the grid's per-sample
// loop issues them (with the configured, positive sample interval).
core::RawSample capture_one(core::IMeasureEngine& engine,
                            const core::MeasureRequest& req) {
  std::vector<core::RawSample> out;
  engine.measure_raw_batch(req, small_config().interval, 1, out);
  return out.front();
}

// Serves one connection from a deterministic site engine on a thread; the
// returned thread joins when the client closes or sends kShutdown.
std::thread serve_site(const fleet::FleetConfig& config, std::uint32_t site,
                       Fd conn) {
  return std::thread([config, site, conn = std::move(conn)]() mutable {
    auto se = fleet::FleetCoordinator::make_site_engine(config, site);
    EngineServer server(std::move(se.engine), std::move(conn), site);
    server.serve();
  });
}

TEST(RemoteEngine, RawBatchIsBitIdenticalToLocalEngine) {
  const auto config = small_config();
  auto [client_end, server_end] = socketpair_stream();
  std::thread server = serve_site(config, 2, std::move(server_end));
  {
    RemoteEngineConfig rc;
    rc.deadline_ms = 5000;
    RemoteEngineHandle remote(std::move(client_end), rc);

    auto local = fleet::FleetCoordinator::make_site_engine(config, 2);
    EXPECT_EQ(remote.word_bits(), local.engine->word_bits());

    core::MeasureRequest req;
    req.start = config.start;
    req.code = config.code;
    std::vector<core::RawSample> over_wire;
    std::vector<core::RawSample> in_process;
    remote.measure_raw_batch(req, config.interval, config.samples_per_site,
                             over_wire);
    local.engine->measure_raw_batch(req, config.interval,
                                    config.samples_per_site, in_process);

    ASSERT_EQ(over_wire.size(), in_process.size());
    for (std::size_t k = 0; k < over_wire.size(); ++k) {
      EXPECT_EQ(over_wire[k].word, in_process[k].word) << "sample " << k;
      EXPECT_EQ(over_wire[k].code.value(), in_process[k].code.value());
      EXPECT_EQ(over_wire[k].timestamp.value(),
                in_process[k].timestamp.value());
    }
    EXPECT_EQ(remote.round_trips(), 1u);
    EXPECT_EQ(remote.transport_faults(), 0u);
  }  // handle destruction closes the connection; the server exits on EOF
  server.join();
}

TEST(RemoteEngine, BatchBeyondOneReplySpanSplitsAndStaysBitIdentical) {
  // A batch larger than one reply frame can carry goes out as consecutive
  // round trips — never as a request the server would reject or a reply
  // the parser would refuse as kBadLength.
  const auto config = small_config();
  const std::size_t count = kMaxSpanSamples + 5;
  auto [client_end, server_end] = socketpair_stream();
  std::thread server = serve_site(config, 3, std::move(server_end));
  {
    RemoteEngineConfig rc;
    rc.deadline_ms = 20000;
    RemoteEngineHandle remote(std::move(client_end), rc);
    auto local = fleet::FleetCoordinator::make_site_engine(config, 3);

    core::MeasureRequest req;
    req.start = config.start;
    req.code = config.code;
    std::vector<core::RawSample> over_wire;
    std::vector<core::RawSample> in_process;
    remote.measure_raw_batch(req, config.interval, count, over_wire);
    local.engine->measure_raw_batch(req, config.interval, count, in_process);

    ASSERT_EQ(over_wire.size(), count);
    ASSERT_EQ(in_process.size(), count);
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < count; ++k) {
      mismatches += over_wire[k].word != in_process[k].word ||
                    over_wire[k].code != in_process[k].code ||
                    over_wire[k].timestamp.value() !=
                        in_process[k].timestamp.value();
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(remote.round_trips(), 2u);
    EXPECT_EQ(remote.transport_faults(), 0u);
  }
  server.join();
}

TEST(RemoteEngine, MeasureDecodesLocallyLikeTheLocalEngine) {
  // Count-1 captures (the grid's per-sample shape) over the wire match the
  // local engine, and the consumer-side ladder decodes the remote words to
  // the bins the behavioral engine's own kernel decode gives the local ones.
  const auto config = small_config();
  const auto& model = calib::calibrated().model;
  const core::DecodeLadder ladder = calib::make_paper_decode_ladder(model);
  const core::BehavioralEngine reference = calib::make_paper_engine(model);
  auto [client_end, server_end] = socketpair_stream();
  std::thread server = serve_site(config, 1, std::move(server_end));
  {
    RemoteEngineConfig rc;
    rc.deadline_ms = 5000;
    RemoteEngineHandle remote(std::move(client_end), rc);
    auto local = fleet::FleetCoordinator::make_site_engine(config, 1);

    for (std::size_t k = 0; k < 4; ++k) {
      core::MeasureRequest req;
      req.start = Picoseconds{config.start.value() +
                              static_cast<double>(k) *
                                  config.interval.value()};
      req.code = config.code;
      const auto remote_raw = capture_one(remote, req);
      const auto local_raw = capture_one(*local.engine, req);
      EXPECT_EQ(remote_raw.word, local_raw.word) << "sample " << k;
      EXPECT_EQ(remote_raw.timestamp.value(), local_raw.timestamp.value());
      const auto remote_bin = ladder.decode(remote_raw.word, remote_raw.code);
      const auto local_bin = reference.decode(local_raw.word, local_raw.code);
      EXPECT_EQ(remote_bin.in_range(), local_bin.in_range());
      EXPECT_EQ(remote_bin.estimate().value(), local_bin.estimate().value());
    }
    EXPECT_EQ(remote.round_trips(), 4u);
  }
  server.join();
}

TEST(RemoteEngine, SilentPeerBlowsTheHandshakeDeadline) {
  auto [client_end, server_end] = socketpair_stream();
  RemoteEngineConfig rc;
  rc.deadline_ms = 60;  // nobody will ever send the hello
  try {
    RemoteEngineHandle remote(std::move(client_end), rc);
    FAIL() << "handshake against a silent peer must time out";
  } catch (const TransportError& err) {
    EXPECT_EQ(err.status(), IoStatus::kTimeout);
  }
}

TEST(RemoteEngine, DeadPeerSurfacesAsTransportError) {
  const auto config = small_config();
  auto [client_end, server_end] = socketpair_stream();
  // Hand-deliver a valid hello, then hang up before any request.
  std::vector<std::uint8_t> hello;
  FrameWriter::append_hello(hello, HelloPayload{0, 31});
  ASSERT_EQ(send_all(server_end, hello.data(), hello.size(), 1000),
            IoStatus::kOk);
  server_end.reset();

  RemoteEngineConfig rc;
  rc.deadline_ms = 200;
  RemoteEngineHandle remote(std::move(client_end), rc);
  EXPECT_EQ(remote.word_bits(), 31u);

  core::MeasureRequest req;
  req.code = config.code;
  EXPECT_THROW((void)capture_one(remote, req), TransportError);
  EXPECT_GE(remote.transport_faults(), 1u);
}

// The acceptance gate for the failure contract: a grid of remote sites whose
// server dies degrades through the EXISTING hung-site path — kHungSite trace
// events carrying the transport status, retries, then quarantine — while
// healthy remote sites keep measuring.
TEST(RemoteEngine, GridMapsTransportLossOntoHungSiteQuarantine) {
  const auto config = small_config();
  const auto fp = scan::Floorplan::grid(2000.0, 1000.0, 2, 1);

  // Site 0 gets a healthy server; site 1's server hangs up after the hello.
  auto [good_client, good_server] = socketpair_stream();
  std::thread server = serve_site(config, 0, std::move(good_server));
  auto [bad_client, bad_server] = socketpair_stream();
  std::vector<std::uint8_t> hello;
  FrameWriter::append_hello(hello, HelloPayload{1, 31});
  ASSERT_EQ(send_all(bad_server, hello.data(), hello.size(), 1000),
            IoStatus::kOk);
  bad_server.reset();

  std::vector<Fd> conns;
  conns.push_back(std::move(good_client));
  conns.push_back(std::move(bad_client));

  grid::ScanGridConfig gc;
  gc.threads = 1;
  gc.samples_per_site = 6;
  gc.code = config.code;
  gc.seed = config.seed;
  gc.resilience.max_retries = 1;
  gc.resilience.quarantine_after = 2;
  gc.resilience.backoff_base_us = 0;
  gc.engine_factory = [&conns](std::uint32_t site_id,
                               const analog::RailPair&,
                               const core::EngineSiteOptions&) {
    RemoteEngineConfig rc;
    rc.deadline_ms = 200;
    return core::EngineHandle(std::make_unique<RemoteEngineHandle>(
        std::move(conns[site_id]), rc));
  };

  grid::RunResult result;
  {
    grid::ScanGrid grid{fp, gc, grid::ScanGrid::constant_rails(Volt{1.0})};
    result = grid.run();
  }  // grid teardown closes the remote handles; the good server exits on EOF
  server.join();

  // Healthy remote site: every sample lands.
  EXPECT_FALSE(result.sites[0].quarantined);
  EXPECT_EQ(result.sites[0].lost, 0u);
  for (std::size_t k = 0; k < gc.samples_per_site; ++k) {
    EXPECT_TRUE(result.sites[0].valid[k]);
  }

  // Dead remote site: transport loss walked the hung path to quarantine.
  EXPECT_TRUE(result.sites[1].quarantined);
  EXPECT_GT(result.sites[1].lost, 0u);
  EXPECT_GT(result.sites[1].retries, 0u);
  EXPECT_EQ(result.quarantined_sites, 1u);
  ASSERT_FALSE(result.sites[1].fault_events.empty());
  for (const auto& event : result.sites[1].fault_events) {
    EXPECT_EQ(event.kind, fault::FaultKind::kHungSite);
    // The trace detail distinguishes transport-induced hangs (IoStatus)
    // from injected ones (0).
    EXPECT_NE(event.detail, 0);
  }
}

}  // namespace
}  // namespace psnt::net
