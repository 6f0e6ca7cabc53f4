// The distributed trainer's transport contracts: frame integrity (any
// corruption is detected before a payload byte is interpreted), channel
// liveness semantics (silence — not in-progress transfer — trips the
// deadline; heartbeats refresh it), dial-with-backoff against a late
// listener, and the exact pack/unpack round-trip of every wire payload.
//
// The channel cases run their peer on a std::jthread, which joins on every
// path out of the test body: a failing main-thread ASSERT returns early,
// and a still-joinable std::thread would abort the whole binary.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "agents/rollout.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/scenarios.h"
#include "dist/channel.h"
#include "dist/frame.h"
#include "dist/trainer.h"
#include "dist/wire.h"
#include "env/map.h"
#include "env/state_encoder.h"

namespace cews::dist {
namespace {

std::string TempAddress(const char* tag) {
  return std::string("unix:/tmp/cews_dist_test_") + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripInArbitraryChunks) {
  const std::string payload(1000, 'x');
  std::string stream = EncodeFrame(FrameType::kParams, payload);
  stream += EncodeFrame(FrameType::kHeartbeat, "");
  stream += EncodeFrame(FrameType::kRollout, "abc");

  // Feed in pathological chunk sizes: 1, 7, 13 bytes at a time.
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{13}}) {
    FrameReader reader;
    for (size_t pos = 0; pos < stream.size(); pos += chunk) {
      const size_t n = std::min(chunk, stream.size() - pos);
      ASSERT_TRUE(reader.Feed(stream.data() + pos, n).ok());
    }
    ASSERT_TRUE(reader.HasFrame());
    Frame f1 = reader.PopFrame();
    EXPECT_EQ(f1.type, FrameType::kParams);
    EXPECT_EQ(f1.payload, payload);
    Frame f2 = reader.PopFrame();
    EXPECT_EQ(f2.type, FrameType::kHeartbeat);
    EXPECT_TRUE(f2.payload.empty());
    Frame f3 = reader.PopFrame();
    EXPECT_EQ(f3.type, FrameType::kRollout);
    EXPECT_EQ(f3.payload, "abc");
    EXPECT_FALSE(reader.HasFrame());
  }
}

TEST(FrameTest, TruncatedFrameNeverSurfaces) {
  const std::string stream = EncodeFrame(FrameType::kParams, "payload");
  FrameReader reader;
  // All but the last byte: nothing must pop out, and no error either (more
  // bytes could still arrive).
  ASSERT_TRUE(reader.Feed(stream.data(), stream.size() - 1).ok());
  EXPECT_FALSE(reader.HasFrame());
  ASSERT_TRUE(reader.Feed(stream.data() + stream.size() - 1, 1).ok());
  EXPECT_TRUE(reader.HasFrame());
}

TEST(FrameTest, EveryBitFlipIsRejected) {
  const std::string clean = EncodeFrame(FrameType::kRollout, "sensitive");
  // Flip one bit at every byte position that is not the magic (a magic flip
  // is also rejected, but with the bad-magic error) and expect a CRC or
  // validation failure — never a surfaced frame.
  for (size_t pos = 4; pos < clean.size(); ++pos) {
    std::string corrupt = clean;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    FrameReader reader;
    const Status status = reader.Feed(corrupt.data(), corrupt.size());
    EXPECT_FALSE(status.ok() && reader.HasFrame())
        << "bit flip at byte " << pos << " surfaced a frame";
  }
}

TEST(FrameTest, BadMagicPoisonsReader) {
  std::string stream = EncodeFrame(FrameType::kHello, "hi");
  stream[0] = 'X';
  FrameReader reader;
  const Status status = reader.Feed(stream.data(), stream.size());
  ASSERT_FALSE(status.ok());
  // Poisoned: even a clean frame is rejected afterwards.
  const std::string clean = EncodeFrame(FrameType::kHello, "hi");
  EXPECT_FALSE(reader.Feed(clean.data(), clean.size()).ok());
  EXPECT_FALSE(reader.HasFrame());
}

TEST(FrameTest, ImplausibleLengthRejected) {
  std::string stream = EncodeFrame(FrameType::kParams, "x");
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&stream[8], &huge, sizeof(huge));
  FrameReader reader;
  EXPECT_FALSE(reader.Feed(stream.data(), stream.size()).ok());
}

TEST(FrameTest, UnknownTypeRejected) {
  std::string stream = EncodeFrame(FrameType::kParams, "x");
  const uint32_t bogus = 999;
  std::memcpy(&stream[4], &bogus, sizeof(bogus));
  FrameReader reader;
  EXPECT_FALSE(reader.Feed(stream.data(), stream.size()).ok());
}

// ---------------------------------------------------------------------------
// Channel layer
// ---------------------------------------------------------------------------

TEST(ChannelTest, SendRecvOverUnixSocket) {
  const std::string address = TempAddress("sendrecv");
  auto listener_or = Listener::Bind(address);
  ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
  Listener listener = std::move(*listener_or);

  std::jthread peer([&address]() {
    auto ch_or = Channel::Dial(address);
    ASSERT_TRUE(ch_or.ok()) << ch_or.status().ToString();
    Channel ch = std::move(*ch_or);
    ASSERT_TRUE(ch.Send(FrameType::kHello, "from-peer").ok());
    auto reply = ch.Recv(5000);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kWelcome);
    EXPECT_EQ(reply->payload, "from-chief");
  });

  auto accepted_or = listener.Accept(5000);
  ASSERT_TRUE(accepted_or.ok()) << accepted_or.status().ToString();
  Channel accepted = std::move(*accepted_or);
  auto hello = accepted.Recv(5000);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->type, FrameType::kHello);
  EXPECT_EQ(hello->payload, "from-peer");
  ASSERT_TRUE(accepted.Send(FrameType::kWelcome, "from-chief").ok());
  peer.join();

  EXPECT_GT(accepted.bytes_sent(), 0u);
  EXPECT_GT(accepted.bytes_received(), 0u);
}

TEST(ChannelTest, DialRetriesUntilLateListenerBinds) {
  const std::string address = TempAddress("backoff");
  Listener listener;
  std::jthread binder([&address, &listener]() {
    // Bind well after the first dial attempts have failed.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto listener_or = Listener::Bind(address);
    ASSERT_TRUE(listener_or.ok()) << listener_or.status().ToString();
    listener = std::move(*listener_or);
    auto ch = listener.Accept(5000);
    ASSERT_TRUE(ch.ok()) << ch.status().ToString();
  });
  DialOptions options;
  options.timeout_ms = 5000;
  auto ch_or = Channel::Dial(address, options);
  EXPECT_TRUE(ch_or.ok()) << ch_or.status().ToString();
  binder.join();
}

TEST(ChannelTest, DialGivesUpAfterDeadline) {
  DialOptions options;
  options.timeout_ms = 200;
  auto ch_or = Channel::Dial(TempAddress("nobody"), options);
  ASSERT_FALSE(ch_or.ok());
  EXPECT_EQ(ch_or.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ChannelTest, SilentPeerTripsDeadlineHeartbeatingPeerDoesNot) {
  const std::string address = TempAddress("liveness");
  auto listener_or = Listener::Bind(address);
  ASSERT_TRUE(listener_or.ok());
  Listener listener = std::move(*listener_or);

  // Handshake: the chief signals once its first window has tripped, so the
  // peer's silence never has to outlast that window by a sleep.
  std::promise<void> window_tripped;
  std::shared_future<void> tripped = window_tripped.get_future().share();
  std::jthread peer([&address, tripped]() {
    auto ch_or = Channel::Dial(address);
    ASSERT_TRUE(ch_or.ok());
    Channel ch = std::move(*ch_or);
    // Phase 1: stay silent until the chief's first 300ms window has
    // tripped. The wait is bounded so a chief that failed before signalling
    // cannot strand this thread.
    if (tripped.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      return;
    }
    // Phase 2: heartbeat every 100ms (well inside the chief's second 300ms
    // window, which opens as the signal is sent), then deliver the real
    // frame — the chief's silence clock must keep resetting on the
    // heartbeats.
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(ch.SendHeartbeat().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ASSERT_TRUE(ch.Send(FrameType::kRollout, "real").ok());
    // Wait for the chief to close first so the socket stays open.
    (void)ch.Recv(5000);
  });

  auto accepted_or = listener.Accept(5000);
  ASSERT_TRUE(accepted_or.ok());
  Channel accepted = std::move(*accepted_or);

  // Silent peer: a 300ms silence window must trip DeadlineExceeded.
  auto timed_out = accepted.Recv(300);
  window_tripped.set_value();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  // Heartbeating peer: the same silence window now never trips, because
  // heartbeats arrive every 100ms once phase 2 starts (right after the
  // signal above); RecvSkippingHeartbeats returns the real frame that
  // follows them.
  auto frame = RecvSkippingHeartbeats(accepted, 300);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kRollout);
  EXPECT_EQ(frame->payload, "real");
  accepted.Close();
  peer.join();
}

TEST(ChannelTest, ExpectFrameNamesTheMismatch) {
  const std::string address = TempAddress("expect");
  auto listener_or = Listener::Bind(address);
  ASSERT_TRUE(listener_or.ok());
  Listener listener = std::move(*listener_or);
  std::jthread peer([&address]() {
    auto ch_or = Channel::Dial(address);
    ASSERT_TRUE(ch_or.ok());
    ASSERT_TRUE(ch_or->Send(FrameType::kShutdown, "").ok());
    (void)ch_or->Recv(2000);
  });
  auto accepted_or = listener.Accept(5000);
  ASSERT_TRUE(accepted_or.ok());
  auto frame = ExpectFrame(*accepted_or, FrameType::kRollout, 2000);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("rollout"), std::string::npos);
  EXPECT_NE(frame.status().message().find("shutdown"), std::string::npos);
  accepted_or->Close();
  peer.join();
}

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

TEST(WireTest, HelloRoundTrip) {
  Hello hello;
  hello.rank = 7;
  hello.config_hash = 0xDEADBEEFCAFEBABEull;
  auto back = UnpackHello(PackHello(hello));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rank, hello.rank);
  EXPECT_EQ(back->config_hash, hello.config_hash);
}

TEST(WireTest, ParamsRoundTripIsBitExact) {
  ParamUpdate update;
  update.iteration = 41;
  Rng rng(5);
  for (int i = 0; i < 257; ++i) {
    update.policy.push_back(static_cast<float>(rng.Gaussian()) * 1e-3f);
  }
  // Include values a text round-trip would mangle.
  update.policy.push_back(1e-45f);          // denormal
  update.policy.push_back(3.14159265e38f);  // near max
  update.intrinsic = {0.0f, -0.0f, 1.0f / 3.0f};
  auto back = UnpackParams(PackParams(update));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->iteration, update.iteration);
  ASSERT_EQ(back->policy.size(), update.policy.size());
  for (size_t i = 0; i < update.policy.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back->policy[i], &update.policy[i], 4), 0)
        << "policy float " << i << " not bit-identical";
  }
  ASSERT_EQ(back->intrinsic.size(), update.intrinsic.size());
}

agents::RolloutBuffer MakeBuffer(int steps, int workers, uint64_t seed,
                                 bool with_adv) {
  Rng rng(seed);
  agents::RolloutBuffer buffer;
  for (int t = 0; t < steps; ++t) {
    agents::Transition tr;
    for (int i = 0; i < 12; ++i) {
      tr.state.push_back(static_cast<float>(rng.Gaussian()));
    }
    for (int w = 0; w < workers; ++w) {
      tr.moves.push_back(static_cast<int>(rng.UniformInt(17)));
      tr.charges.push_back(static_cast<int>(rng.UniformInt(2)));
    }
    tr.log_prob = static_cast<float>(rng.Gaussian());
    tr.value = static_cast<float>(rng.Gaussian());
    tr.reward = static_cast<float>(rng.Gaussian());
    tr.done = t == steps - 1;
    buffer.Add(std::move(tr));
  }
  if (with_adv) buffer.ComputeAdvantages(0.99f, 0.95f, 0.0f);
  return buffer;
}

TEST(WireTest, RolloutRoundTripIsBitExact) {
  RolloutPayload payload;
  payload.rank = 1;
  payload.iteration = 9;
  payload.buffers.push_back(MakeBuffer(6, 2, 11, /*with_adv=*/true));
  payload.buffers.push_back(MakeBuffer(4, 2, 12, /*with_adv=*/true));
  payload.samples.push_back(
      agents::CuriositySample{1, {3, 0.25f, 0.75f}, 4, {5, 0.5f, 0.1f}});
  payload.stats.extrinsic_sum = 1.25;
  payload.stats.intrinsic_sum = 0.5;
  payload.stats.kappa = 0.33;
  payload.stats.xi = 0.9;
  payload.stats.rho = 0.11;
  payload.stats.env_steps = 10;

  auto back = UnpackRollout(PackRollout(payload));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->rank, payload.rank);
  EXPECT_EQ(back->iteration, payload.iteration);
  ASSERT_EQ(back->buffers.size(), 2u);
  for (size_t b = 0; b < 2; ++b) {
    const agents::RolloutBuffer& in = payload.buffers[b];
    const agents::RolloutBuffer& out = back->buffers[b];
    ASSERT_EQ(out.size(), in.size());
    for (size_t t = 0; t < in.size(); ++t) {
      EXPECT_EQ(out[t].state, in[t].state);
      EXPECT_EQ(out[t].moves, in[t].moves);
      EXPECT_EQ(out[t].charges, in[t].charges);
      EXPECT_EQ(std::memcmp(&out[t].log_prob, &in[t].log_prob, 4), 0);
      EXPECT_EQ(out[t].done, in[t].done);
    }
    EXPECT_EQ(out.advantages(), in.advantages());
    EXPECT_EQ(out.returns(), in.returns());
  }
  ASSERT_EQ(back->samples.size(), 1u);
  EXPECT_EQ(back->samples[0].worker, 1);
  EXPECT_EQ(back->samples[0].from.cell, 3);
  EXPECT_EQ(back->samples[0].move, 4);
  EXPECT_EQ(back->stats.env_steps, 10);
  EXPECT_EQ(back->stats.extrinsic_sum, payload.stats.extrinsic_sum);
}

TEST(WireTest, CorruptRolloutPayloadRejectedNotCrash) {
  RolloutPayload payload;
  payload.rank = 0;
  payload.iteration = 1;
  payload.buffers.push_back(MakeBuffer(3, 2, 7, /*with_adv=*/true));
  const std::string packed = PackRollout(payload);
  // Truncations at every length must fail cleanly.
  for (size_t n = 0; n < packed.size(); n += 3) {
    auto r = UnpackRollout(packed.substr(0, n));
    EXPECT_FALSE(r.ok()) << "truncation to " << n << " bytes was accepted";
  }
  // Trailing garbage is also rejected (version-skew tell).
  auto r = UnpackRollout(packed + "zz");
  EXPECT_FALSE(r.ok());
}

/// The shape of a rollout, field by field, so each test can put one field
/// out of the receiver's config.
struct RolloutShape {
  int buffers = 0;
  int transitions = 0;
  int state_size = 0;
  int workers = 0;
  int move = 0;
  int charge = 0;
  bool advantages = true;
};

/// A normalized config with a small grid and horizon.
agents::TrainerConfig SmallTrainerConfig() {
  const env::Map map =
      *core::MakeScenario(core::Scenario::kEarthquakeSite, 30, 2, 2, 42);
  agents::TrainerConfig config;
  config.env.horizon = 4;
  config.encoder.grid = 6;
  config.envs_per_employee = 2;
  return NormalizeConfig(config, map);
}

/// The shape of a rollout that fits `config`, at the top of each range.
RolloutShape FittingShape(const agents::TrainerConfig& config) {
  RolloutShape shape;
  shape.buffers = config.envs_per_employee;
  shape.transitions = config.env.horizon;
  shape.state_size = env::StateEncoder(config.encoder).StateSize();
  shape.workers = config.net.num_workers;
  shape.move = config.net.num_moves - 1;
  shape.charge = 1;
  return shape;
}

/// A payload of `shape` with one in-range curiosity sample, sent through
/// the wire codec: UnpackRollout checks lengths only, so it accepts every
/// shape the tests build.
RolloutPayload MakeRollout(const RolloutShape& shape,
                           const agents::TrainerConfig& config) {
  RolloutPayload payload;
  for (int b = 0; b < shape.buffers; ++b) {
    agents::RolloutBuffer buffer;
    for (int t = 0; t < shape.transitions; ++t) {
      agents::Transition tr;
      tr.state.assign(static_cast<size_t>(shape.state_size), 0.5f);
      tr.moves.assign(static_cast<size_t>(shape.workers), shape.move);
      tr.charges.assign(static_cast<size_t>(shape.workers), shape.charge);
      tr.done = t == shape.transitions - 1;
      buffer.Add(std::move(tr));
    }
    if (shape.advantages) buffer.ComputeAdvantages(0.99f, 0.95f, 0.0f);
    payload.buffers.push_back(std::move(buffer));
  }
  const int last_cell = env::StateEncoder(config.encoder).NumCells() - 1;
  payload.samples.push_back(agents::CuriositySample{
      config.net.num_workers - 1, {last_cell, 0.5f, 0.5f},
      config.net.num_moves - 1, {0, 0.5f, 0.5f}});
  Result<RolloutPayload> decoded = UnpackRollout(PackRollout(payload));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

/// ValidateRollout must refuse `payload` with a message naming `why`.
void ExpectMisfit(const RolloutPayload& payload,
                  const agents::TrainerConfig& config,
                  const std::string& why) {
  const Status status = ValidateRollout(payload, config);
  ASSERT_FALSE(status.ok()) << "a rollout with a bad " << why
                            << " was accepted";
  EXPECT_NE(status.message().find(why), std::string::npos)
      << status.ToString();
}

TEST(WireTest, FittingRolloutAccepted) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  const Status status =
      ValidateRollout(MakeRollout(FittingShape(config), config), config);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(WireTest, RolloutWithOtherBufferCountRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  RolloutShape shape = FittingShape(config);
  shape.buffers += 1;
  ExpectMisfit(MakeRollout(shape, config), config, "buffers");
}

TEST(WireTest, RolloutWithOtherEpisodeLengthRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  RolloutShape shape = FittingShape(config);
  shape.transitions -= 1;
  ExpectMisfit(MakeRollout(shape, config), config, "transitions");
}

TEST(WireTest, RolloutWithOtherStateSizeRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  RolloutShape shape = FittingShape(config);
  shape.state_size += 1;
  ExpectMisfit(MakeRollout(shape, config), config, "state");
}

TEST(WireTest, RolloutWithOtherWorkerCountRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  RolloutShape shape = FittingShape(config);
  shape.workers += 1;
  ExpectMisfit(MakeRollout(shape, config), config, "workers");
}

TEST(WireTest, RolloutWithMoveOutOfRangeRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  RolloutShape shape = FittingShape(config);
  shape.move = config.net.num_moves;
  ExpectMisfit(MakeRollout(shape, config), config, "move index");
  shape.move = -1;
  ExpectMisfit(MakeRollout(shape, config), config, "move index");
}

TEST(WireTest, RolloutWithChargeOutOfRangeRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  RolloutShape shape = FittingShape(config);
  shape.charge = 2;
  ExpectMisfit(MakeRollout(shape, config), config, "charge index");
  shape.charge = -1;
  ExpectMisfit(MakeRollout(shape, config), config, "charge index");
}

TEST(WireTest, RolloutWithoutAdvantagesRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  RolloutShape shape = FittingShape(config);
  shape.advantages = false;
  ExpectMisfit(MakeRollout(shape, config), config, "advantages");
}

TEST(WireTest, RolloutWithOutOfRangeCuriositySampleRejected) {
  const agents::TrainerConfig config = SmallTrainerConfig();
  const int cells = env::StateEncoder(config.encoder).NumCells();
  const RolloutPayload fitting = MakeRollout(FittingShape(config), config);
  const auto with_sample = [&](auto edit) {
    RolloutPayload payload = fitting;
    edit(payload.samples[0]);
    return payload;
  };
  ExpectMisfit(with_sample([&](agents::CuriositySample& s) {
                 s.worker = config.net.num_workers;
               }),
               config, "curiosity sample");
  ExpectMisfit(with_sample([&](agents::CuriositySample& s) {
                 s.from.cell = cells;
               }),
               config, "curiosity sample");
  ExpectMisfit(with_sample([&](agents::CuriositySample& s) {
                 s.to.cell = -1;
               }),
               config, "curiosity sample");
  ExpectMisfit(with_sample([&](agents::CuriositySample& s) {
                 s.move = config.net.num_moves;
               }),
               config, "curiosity sample");
}

TEST(WireTest, ConfigHashSeparatesProblems) {
  const env::Map map =
      *core::MakeScenario(core::Scenario::kEarthquakeSite, 30, 2, 2, 42);
  agents::TrainerConfig config;
  config.env.horizon = 12;
  const agents::TrainerConfig base = NormalizeConfig(config, map);
  const uint64_t h = ConfigHash(base, map);
  EXPECT_EQ(ConfigHash(base, map), h) << "hash must be deterministic";

  agents::TrainerConfig other = base;
  other.seed += 1;
  EXPECT_NE(ConfigHash(other, map), h);
  other = base;
  other.batch_size += 1;
  EXPECT_NE(ConfigHash(other, map), h);
  other = base;
  other.ppo.clip_eps += 0.01f;
  EXPECT_NE(ConfigHash(other, map), h);
  other = base;
  other.intrinsic = agents::IntrinsicMode::kRnd;
  EXPECT_NE(ConfigHash(other, map), h);

  const env::Map other_map =
      *core::MakeScenario(core::Scenario::kEarthquakeSite, 30, 2, 2, 43);
  EXPECT_NE(ConfigHash(base, other_map), h);
}

}  // namespace
}  // namespace cews::dist
