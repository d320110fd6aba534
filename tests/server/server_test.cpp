// Plan-server coverage: NDJSON framing, parse-error replies, the
// PlanService dispatch surface, and the real socket daemon — concurrent
// clients on the same and on distinct TUs (byte-identical to a one-shot
// Session), graceful shutdown mid-connection, stale-socket cleanup on
// restart, and live-socket/bad-path bind refusals.
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"

#include "driver/pipeline.hpp"
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ompdart::server {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string &tag) {
    path = fs::temp_directory_path() /
           ("ompdart-test-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

constexpr const char *kKernelSource = R"(double a[64];
double b[64];

int main() {
  for (int i = 0; i < 64; ++i)
    a[i] = i;
#pragma omp target teams distribute parallel for
  for (int i = 0; i < 64; ++i)
    b[i] = a[i] * 2.0;
  double acc = 0.0;
  for (int i = 0; i < 64; ++i)
    acc += b[i];
  return acc > 0.0 ? 0 : 1;
}
)";

constexpr const char *kOtherSource = R"(double x[32];
double y[32];

int main() {
  for (int i = 0; i < 32; ++i)
    x[i] = i * 0.5;
#pragma omp target teams distribute parallel for
  for (int i = 0; i < 32; ++i)
    y[i] = x[i] + 1.0;
  double acc = 0.0;
  for (int i = 0; i < 32; ++i)
    acc += y[i];
  return acc > 0.0 ? 0 : 1;
}
)";

/// The one-shot answer the server must reproduce byte-for-byte.
std::string oneShotOutput(const std::string &name, const std::string &source) {
  Session session(name, source);
  EXPECT_TRUE(session.run());
  return session.rewrite();
}

json::Value planRequest(const std::string &name, const std::string &source,
                        int id) {
  json::Value request = json::Value::object();
  request.set("id", json::Value(static_cast<std::int64_t>(id)));
  request.set("method", json::Value("plan"));
  request.set("file", json::Value(name));
  request.set("source", json::Value(source));
  return request;
}

// -------------------------------------------------------------------------
// Framing
// -------------------------------------------------------------------------

TEST(LineFramerTest, ReassemblesLinesAcrossPartialFeeds) {
  LineFramer framer;
  const std::string wire = "{\"a\":1}\n{\"b\":2}\n";
  // Feed one byte at a time: framing must not depend on recv boundaries.
  for (char c : wire)
    ASSERT_TRUE(framer.feed(&c, 1));
  std::optional<std::string> first = framer.next();
  std::optional<std::string> second = framer.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, "{\"a\":1}");
  EXPECT_EQ(*second, "{\"b\":2}");
  EXPECT_FALSE(framer.next().has_value());
  EXPECT_FALSE(framer.overflowed());
}

TEST(LineFramerTest, StripsCarriageReturnAndHoldsPartialLine) {
  LineFramer framer;
  const std::string wire = "{\"a\":1}\r\n{\"tail";
  ASSERT_TRUE(framer.feed(wire.data(), wire.size()));
  std::optional<std::string> line = framer.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "{\"a\":1}");
  // The unterminated tail stays buffered until its newline arrives.
  EXPECT_FALSE(framer.next().has_value());
  const std::string rest = "\"}\n";
  ASSERT_TRUE(framer.feed(rest.data(), rest.size()));
  line = framer.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "{\"tail\"}");
}

TEST(LineFramerTest, EmptyLinesAreDelivered) {
  LineFramer framer;
  const std::string wire = "\n\n";
  ASSERT_TRUE(framer.feed(wire.data(), wire.size()));
  std::optional<std::string> line = framer.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->empty());
}

// -------------------------------------------------------------------------
// PlanService dispatch (no sockets)
// -------------------------------------------------------------------------

TEST(PlanServiceTest, InvalidJsonGetsErrorReplyWithoutId) {
  PlanService service(ServiceOptions{});
  const json::Value response = service.handleLine("this is not json");
  EXPECT_FALSE(response.boolOr("ok", true));
  EXPECT_EQ(response.find("id"), nullptr);
  ASSERT_NE(response.find("error"), nullptr);
  EXPECT_NE(response.stringOr("error", "").find("invalid JSON"),
            std::string::npos);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.parseErrors, 1u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST(PlanServiceTest, NonObjectAndUnknownMethodAreErrors) {
  PlanService service(ServiceOptions{});
  const json::Value arrayReply = service.handleLine("[1, 2, 3]");
  EXPECT_FALSE(arrayReply.boolOr("ok", true));

  json::Value unknown = json::Value::object();
  unknown.set("id", json::Value(static_cast<std::int64_t>(7)));
  unknown.set("method", json::Value("frobnicate"));
  const json::Value reply = service.handle(unknown);
  EXPECT_FALSE(reply.boolOr("ok", true));
  // The id WAS recoverable, so it is echoed even on errors.
  ASSERT_NE(reply.find("id"), nullptr);
  EXPECT_EQ(reply.find("id")->asInt(), 7);

  json::Value noMethod = json::Value::object();
  noMethod.set("file", json::Value("a.c"));
  EXPECT_FALSE(service.handle(noMethod).boolOr("ok", true));
}

TEST(PlanServiceTest, PlanMatchesOneShotSessionByteForByte) {
  PlanService service(ServiceOptions{});
  const json::Value response =
      service.handle(planRequest("kernel.c", kKernelSource, 1));
  ASSERT_TRUE(response.boolOr("ok", false));
  const json::Value *result = response.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->boolOr("success", false));
  EXPECT_EQ(result->stringOr("output", ""),
            oneShotOutput("kernel.c", kKernelSource));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.planRequests, 1u);
  EXPECT_EQ(stats.tusPlanned, 1u);
}

TEST(PlanServiceTest, DeeplyNestedSourceFailsAndServiceKeepsServing) {
  PlanService service(ServiceOptions{});
  constexpr std::size_t kDepth = 200000;
  const std::string deep = "int f(void) { return " +
                           std::string(kDepth, '(') + "1" +
                           std::string(kDepth, ')') + "; }\n";
  json::Value request = planRequest("deep.c", deep, 1);
  request.set("report", json::Value(true));
  const json::Value response = service.handleLine(request.dump(false));
  const json::Value *result = response.find("result");
  ASSERT_NE(result, nullptr) << response.dump(false).substr(0, 400);
  EXPECT_FALSE(result->boolOr("success", true));
  const json::Value *report = result->find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_NE(report->dump(false).find("nesting exceeds the maximum depth"),
            std::string::npos);

  // The same service answers the next request normally.
  const json::Value next =
      service.handleLine(planRequest("kernel.c", kKernelSource, 2).dump(false));
  ASSERT_TRUE(next.boolOr("ok", false));
  const json::Value *nextResult = next.find("result");
  ASSERT_NE(nextResult, nullptr);
  EXPECT_TRUE(nextResult->boolOr("success", false));
  EXPECT_EQ(nextResult->stringOr("output", ""),
            oneShotOutput("kernel.c", kKernelSource));
}

TEST(PlanServiceTest, DeeplyNestedRequestIsAnErrorReply) {
  PlanService service(ServiceOptions{});
  const std::string line =
      std::string(200000, '[') + std::string(200000, ']');
  const json::Value response = service.handleLine(line);
  EXPECT_FALSE(response.boolOr("ok", true));
  EXPECT_NE(response.stringOr("error", "").find("nesting exceeds"),
            std::string::npos);
  EXPECT_TRUE(service.handleLine(planRequest("kernel.c", kKernelSource, 2)
                                     .dump(false))
                  .boolOr("ok", false));
}

TEST(PlanServiceTest, UnknownConfigOverrideKeyIsRejected) {
  PlanService service(ServiceOptions{});
  for (const char *key : {"notAKnob", "costModel"}) {
    json::Value request = planRequest("kernel.c", kKernelSource, 1);
    json::Value overrides = json::Value::object();
    overrides.set(key, json::Value(true));
    request.set("config", overrides);
    const json::Value response = service.handle(request);
    EXPECT_FALSE(response.boolOr("ok", true)) << key;
    EXPECT_NE(response.stringOr("error", "").find(key), std::string::npos)
        << key;
  }
}

TEST(PlanServiceTest, StatsExposesAtomicCacheCountersMidTraffic) {
  TempDir dir("service-stats");
  ServiceOptions options;
  options.config.cacheDir = (dir.path / "cache").string();
  options.config.cacheMode = cache::CacheMode::ReadWrite;
  PlanService service(std::move(options));

  // One writer hammers plan requests while a reader polls stats: the
  // snapshot must always be well-formed (this is the satellite's "safe to
  // read in flight" contract; TSan would flag a non-atomic counter here).
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      json::Value statsRequest = json::Value::object();
      statsRequest.set("method", json::Value("stats"));
      const json::Value reply = service.handle(statsRequest);
      EXPECT_TRUE(reply.boolOr("ok", false));
      const json::Value *result = reply.find("result");
      ASSERT_NE(result, nullptr);
      EXPECT_NE(result->find("cache"), nullptr);
    }
  });
  for (int i = 0; i < 6; ++i) {
    const json::Value response =
        service.handle(planRequest("kernel.c", kKernelSource, i));
    ASSERT_TRUE(response.boolOr("ok", false));
  }
  done.store(true);
  reader.join();

  ASSERT_NE(service.cache(), nullptr);
  const cache::CacheStats cacheStats = service.cache()->stats();
  EXPECT_EQ(cacheStats.lookups, 6u);
  EXPECT_EQ(cacheStats.misses, 1u);
  EXPECT_EQ(cacheStats.hits, 5u);
  EXPECT_GE(cacheStats.memoHits, 4u);
}

TEST(PlanServiceTest, ProjectRequestsReplanIncrementally) {
  PlanService service(ServiceOptions{});

  const auto projectRequest = [&](const std::string &mainSource) {
    json::Value request = json::Value::object();
    request.set("method", json::Value("project"));
    request.set("project", json::Value("app"));
    json::Value tus = json::Value::array();
    json::Value mainTu = json::Value::object();
    mainTu.set("file", json::Value("main.c"));
    mainTu.set("source", json::Value(mainSource));
    tus.push(mainTu);
    json::Value otherTu = json::Value::object();
    otherTu.set("file", json::Value("other.c"));
    otherTu.set("source", json::Value(kOtherSource));
    tus.push(otherTu);
    request.set("tus", tus);
    return service.handle(request);
  };

  const json::Value cold = projectRequest(kKernelSource);
  ASSERT_TRUE(cold.boolOr("ok", false));
  EXPECT_EQ(cold.find("result")->uintOr("tusReplanned", 0), 2u);
  EXPECT_EQ(service.heldProjects(), 1u);

  // Identical request: everything reused, no sessions run.
  const json::Value warm = projectRequest(kKernelSource);
  ASSERT_TRUE(warm.boolOr("ok", false));
  EXPECT_EQ(warm.find("result")->uintOr("tusReplanned", 1), 0u);
  EXPECT_EQ(warm.find("result")->uintOr("tusReused", 0), 2u);

  // Comment-only edit: exactly the edited TU replans.
  const json::Value edited =
      projectRequest(std::string(kKernelSource) + "/* touched */\n");
  ASSERT_TRUE(edited.boolOr("ok", false));
  EXPECT_EQ(edited.find("result")->uintOr("tusReplanned", 0), 1u);

  json::Value invalidate = json::Value::object();
  invalidate.set("method", json::Value("invalidate"));
  invalidate.set("project", json::Value("app"));
  const json::Value dropped = service.handle(invalidate);
  ASSERT_TRUE(dropped.boolOr("ok", false));
  EXPECT_EQ(dropped.find("result")->uintOr("projectsDropped", 0), 1u);
  EXPECT_EQ(service.heldProjects(), 0u);
}

TEST(PlanServiceTest, InvalidateDuringConcurrentProjectRequestsIsSafe) {
  PlanService service(ServiceOptions{});

  // Regression: "invalidate" used to destroy a held IncrementalProject
  // (erase its map slot) while another worker was mid-replan on the same
  // instance — a use-after-free. The service now copies a shared_ptr out
  // under the lock, so the instance outlives every in-flight replan and
  // hammering both methods concurrently must stay clean (ASan/TSan builds
  // would flag the old behavior here).
  constexpr int kPlanners = 3;
  constexpr int kRequests = 6;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kPlanners; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        json::Value request = json::Value::object();
        request.set("method", json::Value("project"));
        request.set("project", json::Value("app"));
        json::Value tus = json::Value::array();
        json::Value tu = json::Value::object();
        tu.set("file", json::Value("main.c"));
        // Distinct comment suffixes force real replans each round.
        tu.set("source",
               json::Value(std::string(kKernelSource) + "// t" +
                           std::to_string(t) + "i" + std::to_string(i) +
                           "\n"));
        tus.push(tu);
        request.set("tus", tus);
        if (!service.handle(request).boolOr("ok", false))
          failed.store(true);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kPlanners * kRequests; ++i) {
      json::Value request = json::Value::object();
      request.set("method", json::Value("invalidate"));
      if (!service.handle(request).boolOr("ok", false))
        failed.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread &thread : threads)
    thread.join();
  EXPECT_FALSE(failed.load());
}

// -------------------------------------------------------------------------
// Socket daemon
// -------------------------------------------------------------------------

class PlanServerTest : public ::testing::Test {
protected:
  /// Socket paths live in /tmp directly: sockaddr_un caps the path at
  /// ~100 bytes and nested temp dirs flirt with it.
  std::string socketPathFor(const std::string &tag) {
    return (fs::temp_directory_path() /
            ("ompdart-sock-" + tag + "-" + std::to_string(::getpid())))
        .string();
  }
};

TEST_F(PlanServerTest, ServesPlanRequestsByteIdenticalToOneShot) {
  ServerOptions options;
  options.socketPath = socketPathFor("serve");
  PlanServer planServer(options);
  std::string error;
  ASSERT_TRUE(planServer.start(&error)) << error;

  PlanClient client;
  ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
  std::optional<json::Value> response =
      client.call(planRequest("kernel.c", kKernelSource, 42), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->boolOr("ok", false));
  ASSERT_NE(response->find("id"), nullptr);
  EXPECT_EQ(response->find("id")->asInt(), 42);
  EXPECT_EQ(response->find("result")->stringOr("output", ""),
            oneShotOutput("kernel.c", kKernelSource));

  // Malformed line on the same connection: error reply, connection lives.
  std::optional<std::string> rawReply = client.callRaw("{broken", &error);
  ASSERT_TRUE(rawReply.has_value()) << error;
  std::optional<json::Value> parsed = json::Value::parse(*rawReply);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->boolOr("ok", true));
  response = client.call(planRequest("kernel.c", kKernelSource, 43), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->boolOr("ok", false));

  client.close();
  planServer.stop();
  planServer.wait();
  EXPECT_FALSE(fs::exists(options.socketPath));
}

TEST_F(PlanServerTest, ConcurrentClientsOnSameAndDistinctTus) {
  TempDir dir("server-concurrent");
  ServerOptions options;
  options.socketPath = socketPathFor("conc");
  options.workers = 4;
  options.service.config.cacheDir = (dir.path / "cache").string();
  options.service.config.cacheMode = cache::CacheMode::ReadWrite;
  PlanServer planServer(options);
  std::string error;
  ASSERT_TRUE(planServer.start(&error)) << error;

  const std::string expectedKernel =
      oneShotOutput("kernel.c", kKernelSource);
  const std::string expectedOther = oneShotOutput("other.c", kOtherSource);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PlanClient client;
      std::string clientError;
      if (!client.connect(options.socketPath, &clientError)) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        // Even clients hammer the same TU (cache/memo contention); odd
        // clients alternate TUs (distinct planning problems in flight).
        const bool other = (c % 2 == 1) && (r % 2 == 1);
        const std::string name = other ? "other.c" : "kernel.c";
        const std::string &source = other ? kOtherSource : kKernelSource;
        const std::string &expected =
            other ? expectedOther : expectedKernel;
        std::optional<json::Value> response = client.call(
            planRequest(name, source, c * 100 + r), &clientError);
        if (!response.has_value() || !response->boolOr("ok", false) ||
            response->find("result")->stringOr("output", "") != expected)
          ++failures;
      }
    });
  }
  for (std::thread &t : clients)
    t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = planServer.service().stats();
  EXPECT_EQ(stats.planRequests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.errors, 0u);

  planServer.stop();
  planServer.wait();
  // Counted when a worker finishes a connection, so only stable after the
  // workers joined.
  EXPECT_GE(planServer.connectionsServed(),
            static_cast<std::uint64_t>(kClients));
}

TEST_F(PlanServerTest, ShutdownRequestAnswersInFlightWorkFirst) {
  ServerOptions options;
  options.socketPath = socketPathFor("shutdown");
  PlanServer planServer(options);
  std::string error;
  ASSERT_TRUE(planServer.start(&error)) << error;

  // Pipeline a plan AND a shutdown in one write: the server must answer
  // the plan (already buffered ahead of the shutdown) before stopping.
  PlanClient client;
  ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
  json::Value shutdownRequest = json::Value::object();
  shutdownRequest.set("id", json::Value(static_cast<std::int64_t>(2)));
  shutdownRequest.set("method", json::Value("shutdown"));
  const std::string wire =
      planRequest("kernel.c", kKernelSource, 1).dump(false) + "\n" +
      shutdownRequest.dump(false);
  std::optional<std::string> firstLine = client.callRaw(wire, &error);
  ASSERT_TRUE(firstLine.has_value()) << error;
  std::optional<json::Value> first = json::Value::parse(*firstLine);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->boolOr("ok", false));
  EXPECT_EQ(first->find("result")->stringOr("output", ""),
            oneShotOutput("kernel.c", kKernelSource));

  planServer.wait(); // returns because the shutdown request stopped it
  EXPECT_FALSE(planServer.running());
  EXPECT_FALSE(fs::exists(options.socketPath));
  EXPECT_FALSE(isSocketLive(options.socketPath));
}

TEST_F(PlanServerTest, StaleSocketFileIsCleanedUpOnRestart) {
  const std::string path = socketPathFor("stale");
  // Fake a crashed server: bind a socket at the path, close the fd
  // without unlinking — the file stays but nobody listens.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)),
            0);
  ::close(fd);
  ASSERT_TRUE(fs::exists(path));
  ASSERT_FALSE(isSocketLive(path));

  ServerOptions options;
  options.socketPath = path;
  PlanServer planServer(options);
  std::string error;
  ASSERT_TRUE(planServer.start(&error)) << error;
  EXPECT_TRUE(isSocketLive(path));
  planServer.stop();
  planServer.wait();
}

TEST_F(PlanServerTest, RefusesLiveSocketAndNonSocketPaths) {
  ServerOptions options;
  options.socketPath = socketPathFor("live");
  PlanServer first(options);
  std::string error;
  ASSERT_TRUE(first.start(&error)) << error;

  // A second server on the same live path must refuse, not steal it.
  PlanServer second(options);
  EXPECT_FALSE(second.start(&error));
  EXPECT_NE(error.find("live"), std::string::npos) << error;
  first.stop();
  first.wait();

  // A plain file at the path is never unlinked.
  const std::string filePath = socketPathFor("plainfile");
  {
    std::ofstream out(filePath);
    out << "precious\n";
  }
  ServerOptions fileOptions;
  fileOptions.socketPath = filePath;
  PlanServer third(fileOptions);
  EXPECT_FALSE(third.start(&error));
  EXPECT_TRUE(fs::exists(filePath));
  fs::remove(filePath);
}

} // namespace
} // namespace ompdart::server
