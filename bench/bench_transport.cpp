// Transport cost of one task-sized exchange: the foreman rank sends a
// sealed 1.7 KB payload to a worker rank, which opens it and answers with a
// sealed payload of the same size, one exchange in flight at a time — the
// message pattern of a worker's task and result. Runs over ThreadFabric and
// over SocketFabric with both ranks reaching each other through the hub on
// loopback TCP, as in a socket cluster.
//
//   bench_transport [--exchanges=N] [--bytes=B]
//
// Prints wall and process CPU time per exchange, in µs. The numbers depend
// on the host; they are reported, not gated.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fdml.hpp"

namespace {

using namespace fdml;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// A sealed payload holding `bytes` as one packed string (u32 length, then
/// the bytes), the shape of a task's or a result's Newick.
std::vector<std::uint8_t> sealed(std::size_t bytes) {
  std::vector<std::uint8_t> payload(4 + bytes, 'x');
  for (int i = 0; i < 4; ++i) {
    payload[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(static_cast<std::uint32_t>(bytes) >> (8 * i));
  }
  seal_payload(payload);
  return payload;
}

std::string open_body(const Message& message) {
  const auto body = open_sealed(message.payload,
                                [](Unpacker& u) { return u.get_string(); });
  if (!body.has_value()) throw std::runtime_error("corrupt payload");
  return *body;
}

/// Answers every task with a result of the same size until shutdown.
void echo_worker(Transport& worker) {
  while (auto message = worker.recv()) {
    if (message->tag == MessageTag::kShutdown) return;
    worker.send(kForemanRank, MessageTag::kResult,
                sealed(open_body(*message).size()));
  }
}

struct Cost {
  double wall_us = 0.0;
  double cpu_us = 0.0;
};

/// Times `exchanges` round trips from `foreman` after a short warm-up.
Cost time_exchanges(Transport& foreman, int exchanges, std::size_t bytes) {
  const auto exchange = [&] {
    foreman.send(kFirstWorkerRank, MessageTag::kTask, sealed(bytes));
    const auto reply = foreman.recv();
    if (!reply.has_value() || open_body(*reply).size() != bytes) {
      throw std::runtime_error("exchange failed");
    }
  };
  for (int i = 0; i < 100; ++i) exchange();
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = process_cpu_seconds();
  for (int i = 0; i < exchanges; ++i) exchange();
  Cost cost;
  cost.cpu_us = (process_cpu_seconds() - cpu_start) / exchanges * 1e6;
  cost.wall_us = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count() /
                 exchanges;
  foreman.send(kFirstWorkerRank, MessageTag::kShutdown, {});
  return cost;
}

Cost over_threads(int exchanges, std::size_t bytes) {
  ThreadFabric fabric(kFirstWorkerRank + 1);
  auto foreman = fabric.endpoint(kForemanRank);
  auto worker = fabric.endpoint(kFirstWorkerRank);
  std::thread thread([&] { echo_worker(*worker); });
  const Cost cost = time_exchanges(*foreman, exchanges, bytes);
  thread.join();
  return cost;
}

Cost over_sockets(int exchanges, std::size_t bytes) {
  SocketOptions options;
  options.size = kFirstWorkerRank + 1;
  options.port = free_port();
  SocketFabric hub(options);
  hub.expect_departures();
  std::thread worker([&] {
    SocketOptions mine = options;
    mine.rank = kFirstWorkerRank;
    SocketFabric fabric(mine);
    echo_worker(*fabric.endpoint());
  });
  options.rank = kForemanRank;
  SocketFabric fabric(options);
  auto foreman = fabric.endpoint();
  const Cost cost = time_exchanges(*foreman, exchanges, bytes);
  worker.join();
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int exchanges = static_cast<int>(args.get_int("exchanges", 5000));
  const auto bytes = static_cast<std::size_t>(args.get_int("bytes", 1700));
  std::printf("transport: %zu-byte sealed payload each way, one exchange in "
              "flight, %d exchanges\n",
              bytes, exchanges);
  std::printf("%-8s %10s %10s\n", "fabric", "wall_us", "cpu_us");
  const Cost threads = over_threads(exchanges, bytes);
  std::printf("%-8s %10.2f %10.2f\n", "threads", threads.wall_us, threads.cpu_us);
  const Cost sockets = over_sockets(exchanges, bytes);
  std::printf("%-8s %10.2f %10.2f\n", "socket", sockets.wall_us, sockets.cpu_us);
  return 0;
}
