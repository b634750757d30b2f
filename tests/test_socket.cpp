// Tests for the cross-process TCP transport: the pure wire codec (partial
// feeds, corrupt-frame corpus), the SocketFabric rendezvous/routing/death
// machinery (threads standing in for processes over real loopback sockets),
// the payload-seal parity contract, and a corrupt-wire corpus over every
// protocol codec.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "comm/chaos_proxy.hpp"
#include "comm/integrity.hpp"
#include "comm/socket.hpp"
#include "comm/wire.hpp"
#include "model/simulate.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "parallel/protocol.hpp"
#include "parallel/socket_cluster.hpp"
#include "search/search.hpp"
#include "search/task.hpp"
#include "tree/random.hpp"
#include "util/rng.hpp"

namespace fdml {
namespace {

// ---------------------------------------------------------------------------
// Wire codec

WireFrame sample_frame() {
  WireFrame frame;
  frame.kind = FrameKind::kData;
  frame.source = 3;
  frame.dest = 1;
  frame.tag = MessageTag::kResult;
  frame.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  return frame;
}

TEST(Wire, EncodeDecodeRoundTrip) {
  const WireFrame frame = sample_frame();
  const auto bytes = encode_frame(frame);
  EXPECT_EQ(bytes.size(),
            kWireHeaderSize + frame.payload.size() + kWireFooterSize);

  FrameParser parser;
  std::vector<WireFrame> out;
  ASSERT_TRUE(parser.feed(bytes.data(), bytes.size(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, FrameKind::kData);
  EXPECT_EQ(out[0].source, 3);
  EXPECT_EQ(out[0].dest, 1);
  EXPECT_EQ(out[0].tag, MessageTag::kResult);
  EXPECT_EQ(out[0].payload, frame.payload);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Wire, EmptyPayloadRoundTrip) {
  WireFrame frame;
  frame.kind = FrameKind::kAnnounce;
  frame.source = 5;
  frame.dest = 0;
  const auto bytes = encode_frame(frame);
  FrameParser parser;
  std::vector<WireFrame> out;
  ASSERT_TRUE(parser.feed(bytes.data(), bytes.size(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, FrameKind::kAnnounce);
  EXPECT_TRUE(out[0].payload.empty());
}

TEST(Wire, OneByteAtATime) {
  // The parser must accept arbitrarily fragmented reads — TCP guarantees
  // nothing about read boundaries.
  const auto bytes = encode_frame(sample_frame());
  FrameParser parser;
  std::vector<WireFrame> out;
  for (const std::uint8_t byte : bytes) {
    ASSERT_TRUE(parser.feed(&byte, 1, out));
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, sample_frame().payload);
}

TEST(Wire, RandomChunksManyFrames) {
  // Several frames back to back, fed in deterministic random-sized chunks:
  // all arrive, in order, regardless of how the stream was sliced.
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 16; ++i) {
    WireFrame frame = sample_frame();
    frame.payload.assign(static_cast<std::size_t>(i * 7), static_cast<std::uint8_t>(i));
    const auto bytes = encode_frame(frame);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  Rng rng(99);
  FrameParser parser;
  std::vector<WireFrame> out;
  std::size_t fed = 0;
  while (fed < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.below(40), stream.size() - fed);
    ASSERT_TRUE(parser.feed(stream.data() + fed, chunk, out));
    fed += chunk;
  }
  ASSERT_EQ(out.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].payload.size(),
              static_cast<std::size_t>(i * 7));
  }
}

TEST(Wire, TruncationAtEveryOffsetIsIncompleteNotError) {
  // A prefix of a valid frame is just an incomplete frame: the parser waits
  // for the rest (the peer-death path), it does not report corruption.
  const auto bytes = encode_frame(sample_frame());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameParser parser;
    std::vector<WireFrame> out;
    ASSERT_TRUE(parser.feed(bytes.data(), cut, out)) << "cut at " << cut;
    EXPECT_TRUE(out.empty()) << "cut at " << cut;
    EXPECT_EQ(parser.error(), WireError::kNone) << "cut at " << cut;
  }
}

TEST(Wire, FlipEveryByteNeverYieldsAValidFrame) {
  // Single-byte corruption anywhere in the frame must never decode as the
  // original frame: either the parser rejects the stream outright (magic,
  // version, kind, digest) or it stalls waiting for bytes a corrupt length
  // prefix promised — and in no case buffers anything sized by the
  // corruption.
  const auto bytes = encode_frame(sample_frame());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0xFF}, std::uint8_t{0x01}}) {
      auto corrupt = bytes;
      corrupt[i] ^= mask;
      FrameParser parser;
      std::vector<WireFrame> out;
      const bool ok = parser.feed(corrupt.data(), corrupt.size(), out);
      if (ok) {
        // Not rejected: the only legal outcome is an incomplete frame (a
        // length byte grew), never a decoded one.
        EXPECT_TRUE(out.empty()) << "byte " << i << " mask " << int(mask);
        EXPECT_LE(parser.buffered(), corrupt.size())
            << "byte " << i << " mask " << int(mask);
      } else {
        EXPECT_NE(parser.error(), WireError::kNone);
      }
    }
  }
}

TEST(Wire, OversizedLengthRejectedBeforeBuffering) {
  // Length prefix of 0xFFFFFFFF: rejected from the header alone — the
  // parser must not wait for (or allocate) 4 GB.
  auto bytes = encode_frame(sample_frame());
  bytes[16] = bytes[17] = bytes[18] = bytes[19] = 0xFF;
  FrameParser parser;
  std::vector<WireFrame> out;
  EXPECT_FALSE(parser.feed(bytes.data(), kWireHeaderSize, out));
  EXPECT_EQ(parser.error(), WireError::kOversizedPayload);
  EXPECT_STREQ(wire_error_name(parser.error()), "oversized_payload");
}

TEST(Wire, PoisonedParserStaysPoisoned) {
  auto bytes = encode_frame(sample_frame());
  bytes[0] ^= 0xFF;  // bad magic
  FrameParser parser;
  std::vector<WireFrame> out;
  EXPECT_FALSE(parser.feed(bytes.data(), bytes.size(), out));
  EXPECT_EQ(parser.error(), WireError::kBadMagic);
  // A subsequent valid frame must not resurrect the connection: framing is
  // untrustworthy once the stream has desynced.
  const auto good = encode_frame(sample_frame());
  EXPECT_FALSE(parser.feed(good.data(), good.size(), out));
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// SocketFabric over real loopback sockets (threads stand in for processes)

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

SocketOptions fabric_options(int rank, int size, std::uint16_t port) {
  SocketOptions options;
  options.rank = rank;
  options.size = size;
  options.port = port;
  options.connect_timeout = std::chrono::milliseconds(5000);
  options.connect_retry = std::chrono::milliseconds(20);
  return options;
}

TEST(SocketFabric, RendezvousAndPointToPoint) {
  const std::uint16_t port = pick_free_port();
  SocketFabric hub(fabric_options(0, 3, port));
  hub.expect_departures();  // peers exit when their part is done

  std::thread peer1([&] {
    SocketFabric fabric(fabric_options(1, 3, port));
    auto endpoint = fabric.endpoint();
    endpoint->send(0, MessageTag::kResult, {1, 2, 3});
    endpoint->send(2, MessageTag::kTask, {9});  // routed peer -> hub -> peer
    const auto reply = endpoint->recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->source, 0);
    EXPECT_EQ(reply->tag, MessageTag::kShutdown);
  });
  std::thread peer2([&] {
    SocketFabric fabric(fabric_options(2, 3, port));
    auto endpoint = fabric.endpoint();
    const auto task = endpoint->recv();
    ASSERT_TRUE(task.has_value());
    EXPECT_EQ(task->source, 1);
    EXPECT_EQ(task->tag, MessageTag::kTask);
    EXPECT_EQ(task->payload, (std::vector<std::uint8_t>{9}));
  });

  ASSERT_TRUE(hub.wait_ready(std::chrono::milliseconds(5000)));
  auto endpoint = hub.endpoint();
  const auto message = endpoint->recv();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->source, 1);
  EXPECT_EQ(message->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  endpoint->send(1, MessageTag::kShutdown, {});

  peer1.join();
  peer2.join();
  EXPECT_EQ(hub.stats().peer_deaths, 0u);
}

TEST(SocketFabric, SelfSendDeliversLocally) {
  const std::uint16_t port = pick_free_port();
  SocketFabric hub(fabric_options(0, 2, port));
  auto endpoint = hub.endpoint();
  endpoint->send(0, MessageTag::kProgress, {7});
  const auto message = endpoint->recv();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->source, 0);
  EXPECT_EQ(message->payload, (std::vector<std::uint8_t>{7}));
}

TEST(SocketFabric, InterleavedSendersPreserveSenderOrder) {
  // Ranks 2, 3, 4 blast numbered messages at rank 1 concurrently. TCP plus
  // the per-connection writer queue must keep each sender's stream in
  // order (interleaving across senders is fine).
  constexpr int kSize = 5;
  constexpr int kPerSender = 200;
  const std::uint16_t port = pick_free_port();
  SocketFabric hub(fabric_options(0, kSize, port));
  hub.expect_departures();  // senders exit as soon as their queue drains

  std::thread receiver([&] {
    SocketFabric fabric(fabric_options(1, kSize, port));
    auto endpoint = fabric.endpoint();
    std::map<int, std::uint32_t> next_expected;
    for (int received = 0; received < (kSize - 2) * kPerSender; ++received) {
      const auto message = endpoint->recv();
      ASSERT_TRUE(message.has_value());
      ASSERT_EQ(message->payload.size(), 4u);
      std::uint32_t sequence = 0;
      std::memcpy(&sequence, message->payload.data(), 4);
      EXPECT_EQ(sequence, next_expected[message->source])
          << "from rank " << message->source;
      next_expected[message->source] = sequence + 1;
    }
  });
  std::vector<std::thread> senders;
  for (int rank = 2; rank < kSize; ++rank) {
    senders.emplace_back([&, rank] {
      SocketFabric fabric(fabric_options(rank, kSize, port));
      auto endpoint = fabric.endpoint();
      for (std::uint32_t sequence = 0; sequence < kPerSender; ++sequence) {
        std::vector<std::uint8_t> payload(4);
        std::memcpy(payload.data(), &sequence, 4);
        endpoint->send(1, MessageTag::kResult, std::move(payload));
      }
      // Destruction closes the fabric, which flushes the queue first.
    });
  }
  for (auto& thread : senders) thread.join();
  receiver.join();
}

TEST(SocketFabric, MidMessagePeerDeathIsDetectedNotFatal) {
  // A raw client completes the handshake, sends *half* a frame, and drops
  // dead. The hub must mark the rank dead and keep serving everyone else —
  // a truncated frame at EOF is a death, not a crash or a hang.
  const std::uint16_t port = pick_free_port();
  SocketFabric hub(fabric_options(0, 3, port));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  WireFrame announce;
  announce.kind = FrameKind::kAnnounce;
  announce.source = 2;
  announce.dest = 0;
  announce.payload = {3, 0, 0, 0};  // u32 fabric size
  const auto announce_bytes = encode_frame(announce);
  ASSERT_EQ(::send(fd, announce_bytes.data(), announce_bytes.size(), 0),
            static_cast<ssize_t>(announce_bytes.size()));

  WireFrame data;
  data.kind = FrameKind::kData;
  data.source = 2;
  data.dest = 0;
  data.tag = MessageTag::kResult;
  data.payload.assign(256, 0xAB);
  const auto data_bytes = encode_frame(data);
  // Half a frame, then an abrupt close.
  ASSERT_GT(::send(fd, data_bytes.data(), data_bytes.size() / 2, 0), 0);
  ::close(fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hub.stats().peer_deaths == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(hub.stats().peer_deaths, 1u);
  EXPECT_EQ(hub.dead_peers(), (std::vector<int>{2}));

  // The fabric is still alive for other ranks.
  std::thread peer1([&] {
    SocketFabric fabric(fabric_options(1, 3, port));
    auto endpoint = fabric.endpoint();
    const auto message = endpoint->recv();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(message->tag, MessageTag::kShutdown);
  });
  auto endpoint = hub.endpoint();
  hub.expect_departures();
  // Rank 1 may still be rendezvousing; sends are queued until it announces.
  endpoint->send(1, MessageTag::kShutdown, {});
  peer1.join();
  EXPECT_EQ(hub.stats().peer_deaths, 1u);  // still only the abrupt one
}

TEST(SocketFabric, MalformedStreamDropsOnlyThatConnection) {
  const std::uint16_t port = pick_free_port();
  SocketFabric hub(fabric_options(0, 2, port));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::vector<std::uint8_t> garbage(64, 0x5A);
  ::send(fd, garbage.data(), garbage.size(), 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hub.stats().frame_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(hub.stats().frame_errors, 1u);
  ::close(fd);
}

TEST(SocketFabric, DroppedFrameMovesStatsAndRegistryAlike) {
  // After its handshake, a raw client sends a frame that is not data; the
  // hub drops it. The fabric's counter and its "socket.frames_dropped"
  // registry twin must move by the same amount.
  const std::uint16_t port = pick_free_port();
  SocketFabric hub(fabric_options(0, 2, port));
  const obs::Counter& registry =
      obs::MetricsRegistry::process().counter("socket.frames_dropped");
  const std::uint64_t stats_before = hub.stats().frames_dropped;
  const std::uint64_t registry_before = registry.value();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  WireFrame announce;
  announce.kind = FrameKind::kAnnounce;
  announce.source = 1;
  announce.dest = 0;
  announce.payload = {2, 0, 0, 0};  // u32 fabric size
  WireFrame stray = announce;
  stray.kind = FrameKind::kWelcome;
  for (const WireFrame& frame : {announce, stray}) {
    const auto bytes = encode_frame(frame);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hub.stats().frames_dropped == stats_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(hub.stats().frames_dropped - stats_before, 1u);
  EXPECT_EQ(registry.value() - registry_before, 1u);
  ::close(fd);
}

TEST(SocketFabric, HubCloseShutsPeerMailbox) {
  // The "closed mailbox" contract: when the hub goes away, a peer's recv()
  // returns nullopt so its role loop unwinds — same as ThreadFabric.
  const std::uint16_t port = pick_free_port();
  auto hub = std::make_unique<SocketFabric>(fabric_options(0, 2, port));

  std::atomic<bool> unblocked{false};
  std::thread peer([&] {
    SocketFabric fabric(fabric_options(1, 2, port));
    auto endpoint = fabric.endpoint();
    const auto message = endpoint->recv();  // blocks until the hub dies
    EXPECT_FALSE(message.has_value());
    EXPECT_TRUE(endpoint->closed());
    unblocked = true;
  });
  ASSERT_TRUE(hub->wait_ready(std::chrono::milliseconds(5000)));
  hub->expect_departures();
  hub->close();
  peer.join();
  EXPECT_TRUE(unblocked.load());
}

TEST(SocketFabric, RendezvousTimesOutWithoutHub) {
  SocketOptions options = fabric_options(1, 2, pick_free_port());
  options.connect_timeout = std::chrono::milliseconds(200);
  EXPECT_THROW(SocketFabric{options}, std::runtime_error);
}

TEST(SocketFabric, SlowLorisHandshakeIsTimedOutNotServedForever) {
  // A connection that opens TCP and then trickles (here: one byte of an
  // announce, then silence) must be evicted after handshake_timeout — it
  // held no rank, so it is not a peer death — and the fabric must keep
  // serving real peers afterwards.
  const std::uint16_t port = pick_free_port();
  SocketOptions hub_options = fabric_options(0, 2, port);
  hub_options.handshake_timeout = std::chrono::milliseconds(150);
  SocketFabric hub(hub_options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::uint8_t teaser = 'F';  // first byte of the frame magic
  ::send(fd, &teaser, 1, 0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hub.stats().handshake_timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(hub.stats().handshake_timeouts, 1u);
  EXPECT_EQ(hub.stats().peer_deaths, 0u);
  ::close(fd);

  // An honest peer still rendezvouses and talks.
  std::thread peer([&] {
    SocketFabric fabric(fabric_options(1, 2, port));
    auto endpoint = fabric.endpoint();
    const auto message = endpoint->recv();
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(message->tag, MessageTag::kShutdown);
  });
  ASSERT_TRUE(hub.wait_ready(std::chrono::milliseconds(5000)));
  hub.expect_departures();
  hub.endpoint()->send(1, MessageTag::kShutdown, {});
  peer.join();
}

TEST(SocketFabric, PeerReconnectsThroughOutageAndIsReadmitted) {
  // The EOF-was-fatal regression: route a peer through a chaos proxy, sever
  // the connection abruptly, and require (a) the hub counts a death and
  // then re-admits the rank, (b) the peer's mailbox stays open across the
  // outage, and (c) traffic flows again afterwards.
  const std::uint16_t hub_port = pick_free_port();
  SocketFabric hub(fabric_options(0, 2, hub_port));

  ChaosProxyOptions proxy_options;
  proxy_options.target_port = hub_port;
  ChaosProxy proxy(proxy_options);

  SocketOptions peer_options = fabric_options(1, 2, proxy.port());
  peer_options.reconnect = true;
  peer_options.reconnect_backoff = std::chrono::milliseconds(10);
  peer_options.reconnect_budget = std::chrono::milliseconds(5000);
  SocketFabric peer(peer_options);
  auto peer_endpoint = peer.endpoint();
  ASSERT_TRUE(hub.wait_ready(std::chrono::milliseconds(5000)));

  auto hub_endpoint = hub.endpoint();
  hub_endpoint->send(1, MessageTag::kProgress, {1});
  auto first = peer_endpoint->recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, (std::vector<std::uint8_t>{1}));

  proxy.sever_all();

  // The peer redials (through the proxy again) and re-announces; the hub
  // sees the old connection die and accepts the rank back.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((hub.stats().readmissions == 0 || peer.stats().readmissions == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(hub.stats().peer_deaths, 1u);
  EXPECT_GE(hub.stats().readmissions, 1u);
  EXPECT_GE(peer.stats().readmissions, 1u);

  // Both directions work on the new connection.
  hub_endpoint->send(1, MessageTag::kProgress, {2});
  const auto second = peer_endpoint->recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, (std::vector<std::uint8_t>{2}));
  peer_endpoint->send(0, MessageTag::kResult, {3});
  const auto at_hub = hub_endpoint->recv();
  ASSERT_TRUE(at_hub.has_value());
  EXPECT_EQ(at_hub->payload, (std::vector<std::uint8_t>{3}));
  hub.expect_departures();
}

// ---------------------------------------------------------------------------
// End to end: the full paper layout over TCP matches the serial search

TEST(SocketCluster, SearchMatchesSerialBitForBit) {
  Rng rng(77);
  const Tree truth = random_yule_tree(8, rng);
  SimulateOptions sim;
  sim.num_sites = 200;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(8), SubstModel::jc69(),
                         RateModel::uniform(), sim, rng);
  const PatternAlignment data(alignment);
  const SubstModel model = SubstModel::jc69();
  const RateModel rates = RateModel::uniform();

  SearchOptions search_options;
  search_options.seed = 5;
  SerialTaskRunner serial(data, model, rates);
  const SearchResult serial_result =
      StepwiseSearch(data, search_options).run(serial);

  const std::uint16_t port = pick_free_port();
  SocketRunOptions options;
  options.socket = fabric_options(0, 5, port);  // master+foreman+monitor+2w

  // The foreman thread counts the hellos it has handled in the process
  // registry. wait_ready() only means every rank finished the TCP
  // handshake, and one worker can finish this search alone, so the search
  // waits until the foreman has registered both workers.
  const obs::Counter& hellos =
      obs::MetricsRegistry::process().counter("foreman.hellos");
  const std::uint64_t hellos_before = hellos.value();
  std::vector<std::thread> roles;
  for (int rank = 1; rank < 5; ++rank) {
    roles.emplace_back([&, rank] {
      SocketRunOptions role_options = options;
      role_options.socket.rank = rank;
      EXPECT_NO_THROW(run_socket_role(data, model, rates, role_options));
    });
  }
  SearchResult socket_result;
  {
    SocketCluster cluster(data, model, rates, options);
    ASSERT_TRUE(cluster.wait_ready(std::chrono::milliseconds(10000)));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (hellos.value() < hellos_before + 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(hellos.value(), hellos_before + 2);
    socket_result = StepwiseSearch(data, search_options).run(cluster.runner());
    cluster.shutdown();
    EXPECT_EQ(cluster.master_stats().serial_fallbacks, 0u);
    EXPECT_EQ(cluster.fabric_stats().peer_deaths, 0u);
    // Each worker's final telemetry frame carried its totals to the hub.
    const std::vector<obs::RankTelemetry> rows = cluster.telemetry().ranks();
    ASSERT_EQ(rows.size(), 2u);
    std::uint64_t tasks = 0;
    for (const obs::RankTelemetry& row : rows) {
      EXPECT_GT(row.counter("kernel.clv_computations"), 0u) << "rank " << row.rank;
      tasks += row.counter("worker.tasks_evaluated");
    }
    EXPECT_EQ(tasks, serial_result.trees_evaluated);
  }
  for (auto& thread : roles) thread.join();

  // The determinism contract the multiprocess CI job enforces with diff:
  // transport must not change the answer, bit for bit.
  EXPECT_EQ(socket_result.best_newick, serial_result.best_newick);
  EXPECT_EQ(socket_result.best_log_likelihood, serial_result.best_log_likelihood);
  EXPECT_EQ(socket_result.trees_evaluated, serial_result.trees_evaluated);
}

// ---------------------------------------------------------------------------
// Sealed telemetry frames

TEST(Integrity, SealedFinalTelemetryFrameRoundTrips) {
  // The exact bytes worker_main sends on shutdown must open cleanly.
  obs::MetricsRegistry registry;
  registry.counter("worker.tasks_evaluated").add(17);
  obs::TelemetryEmitter emitter(registry, 4);
  std::vector<std::uint8_t> payload = emitter.collect().pack();
  seal_payload(payload);
  const std::optional<obs::TelemetryFrame> decoded =
      open_sealed(payload, obs::TelemetryFrame::unpack);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rank, 4);
  EXPECT_EQ(decoded->counters.at("worker.tasks_evaluated"), 17u);
}

// ---------------------------------------------------------------------------
// Corrupt-wire corpus over every protocol codec

RoundMessage sample_round() {
  RoundMessage message;
  message.round_id = 42;
  for (int i = 0; i < 3; ++i) {
    TreeTask task;
    task.task_id = static_cast<std::uint64_t>(i);
    task.round_id = 42;
    task.newick = "((A,B),(C,D));";
    task.focus_taxon = i;
    message.tasks.push_back(task);
  }
  return message;
}

RoundDoneMessage sample_round_done() {
  RoundDoneMessage message;
  message.round_id = 42;
  message.best.task_id = 1;
  message.best.round_id = 42;
  message.best.log_likelihood = -1234.5;
  message.best.newick = "((A,B),(C,D));";
  for (int i = 0; i < 3; ++i) {
    TaskStat stat;
    stat.task_id = static_cast<std::uint64_t>(i);
    stat.cpu_seconds = 0.25;
    stat.bytes = 100;
    stat.worker = 3 + i;
    message.stats.push_back(stat);
  }
  return message;
}

/// Reads every single-byte flip and every truncation of the message
/// `bytes` through open_sealed with `decode`, each sealed as a sender
/// would, so the codec itself sees the damage. The contract is narrow but
/// absolute: a value or nullopt, never a crash, hang or corruption-sized
/// allocation (ASan/UBSan builds of this test are the teeth). A truncation,
/// a flip after sealing and the message with one byte appended must all
/// be rejected.
template <typename Decode>
void run_corrupt_corpus(const std::vector<std::uint8_t>& bytes, Decode decode) {
  const auto sealed = [](std::vector<std::uint8_t> body) {
    seal_payload(body);
    return body;
  };
  const std::vector<std::uint8_t> valid = sealed(bytes);
  ASSERT_TRUE(open_sealed(valid, decode).has_value());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0xFF}, std::uint8_t{0x01},
                                    std::uint8_t{0x80}}) {
      auto corrupt = bytes;
      corrupt[i] ^= mask;
      (void)open_sealed(sealed(corrupt), decode);
      auto flipped = valid;
      flipped[i] ^= mask;
      EXPECT_FALSE(open_sealed(flipped, decode).has_value()) << "flip at " << i;
    }
  }
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(open_sealed(sealed(truncated), decode).has_value())
        << "cut " << cut;
  }
  std::vector<std::uint8_t> appended = bytes;
  appended.push_back(0);
  EXPECT_FALSE(open_sealed(sealed(appended), decode).has_value())
      << "a trailing byte was accepted";
}

TEST(CorruptWire, RoundMessageCorpus) {
  run_corrupt_corpus(sample_round().pack(), RoundMessage::unpack);
}

TEST(CorruptWire, RoundDoneMessageCorpus) {
  run_corrupt_corpus(sample_round_done().pack(), RoundDoneMessage::unpack);
}

TEST(CorruptWire, ProgressMessageCorpus) {
  ProgressMessage message;
  message.round_id = 7;
  message.completed = 3;
  message.expected = 9;
  run_corrupt_corpus(message.pack(), ProgressMessage::unpack);
}

TEST(CorruptWire, RoundFailedMessageCorpus) {
  RoundFailedMessage message;
  message.round_id = 7;
  message.reason = "all workers delinquent";
  run_corrupt_corpus(message.pack(), RoundFailedMessage::unpack);
}

TEST(CorruptWire, TaskRejectedMessageCorpus) {
  TaskRejectedMessage message;
  message.round_id = 7;
  message.task_id = 3;
  message.reason = "focus task: taxon 40 is not in the tree";
  run_corrupt_corpus(message.pack(), TaskRejectedMessage::unpack);
}

TEST(CorruptWire, TreeTaskAndResultCorpus) {
  TreeTask marked = sample_round().tasks[0];
  marked.focus_taxon = -1;
  marked.regraft_taxa = {2, 0, 3};
  marked.screen_lnl = -1234.5;
  for (const TreeTask& task : {sample_round().tasks[0], marked}) {
    Packer task_packer;
    task.pack(task_packer);
    run_corrupt_corpus(task_packer.take(), TreeTask::unpack);
  }

  Packer result_packer;
  sample_round_done().best.pack(result_packer);
  run_corrupt_corpus(result_packer.take(), TaskResult::unpack);
}

TEST(CorruptWire, TelemetryFrameCorpus) {
  obs::TelemetryFrame frame;
  frame.rank = 4;
  frame.seq = 2;
  frame.counters["worker.tasks_evaluated"] = 17;
  frame.gauges["queue.depth"] = -2;
  run_corrupt_corpus(frame.pack(), obs::TelemetryFrame::unpack);
}

TEST(CorruptWire, CorruptTaskCountFailsAsTruncationNotAllocation) {
  // Regression for the reserve-before-validate bug: a task count of
  // 0xFFFFFFFF must throw the Unpacker's truncation error *before* any
  // count-proportional reserve() — pre-fix this line attempted a ~hundreds
  // of GB vector reserve.
  auto bytes = sample_round().pack();
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0xFF;  // count follows round_id
  EXPECT_THROW((void)unpack_all(Unpacker(bytes), RoundMessage::unpack),
               std::out_of_range);
}

TEST(CorruptWire, CorruptStatCountFailsAsTruncationNotAllocation) {
  RoundDoneMessage message = sample_round_done();
  message.stats.clear();
  auto bytes = message.pack();  // with no stats, the count is the last u32
  ASSERT_GE(bytes.size(), 4u);
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) bytes[i] = 0xFF;
  EXPECT_THROW((void)unpack_all(Unpacker(bytes), RoundDoneMessage::unpack),
               std::out_of_range);
}

}  // namespace
}  // namespace fdml
