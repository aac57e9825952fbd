// Tests for the server front end: wire-protocol round trips, admission
// control (caps, queue timeout, drain, slot release on cancellation),
// byte-identical remote execution vs in-process, multi-client stress,
// malformed-frame robustness, the HTTP dialect, graceful drain writing
// snapshots, and per-tenant partitioning of the storage tiers.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/synthetic.h"
#include "engines/nodb_engine.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "obs/tenant.h"
#include "raw/stats_collector.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "store/segment_store.h"

namespace nodb {
namespace server {
namespace {

/// ---- Wire round trips --------------------------------------------------

TEST(WireTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  w.PutDouble(3.14159);
  w.PutString("hello");
  w.PutString("");

  WireReader r(w.data());
  EXPECT_EQ(*r.GetU8(), 0xab);
  EXPECT_EQ(*r.GetU16(), 0xbeef);
  EXPECT_EQ(*r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789abcdefull);
  EXPECT_EQ(*r.GetI64(), -42);
  EXPECT_EQ(*r.GetDouble(), 3.14159);
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireTest, TruncatedReadsFailWithParseError) {
  WireWriter w;
  w.PutU32(7);
  {
    WireReader r(w.data());
    EXPECT_FALSE(r.GetU64().ok());
    EXPECT_TRUE(r.GetU64().status().IsParseError());
  }
  {
    // String length prefix promising more bytes than the payload has.
    WireWriter s;
    s.PutU32(100);
    WireReader r(s.data());
    auto got = r.GetString();
    EXPECT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsParseError());
  }
}

TEST(WireTest, SchemaRoundTrip) {
  auto schema = Schema::Make({{"id", DataType::kInt64},
                              {"name", DataType::kString},
                              {"amount", DataType::kDouble},
                              {"day", DataType::kDate}});
  WireWriter w;
  EncodeSchema(*schema, &w);
  WireReader r(w.data());
  auto decoded = DecodeSchema(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(**decoded == *schema);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireTest, BatchRoundTripWithNulls) {
  auto schema = Schema::Make({{"i", DataType::kInt64},
                              {"d", DataType::kDouble},
                              {"s", DataType::kString},
                              {"t", DataType::kDate}});
  RecordBatch batch(schema);
  batch.AppendRow({Value::Int64(1), Value::Double(1.5),
                   Value::String("alpha"), Value::Date(8400)});
  batch.AppendRow({Value::Null(), Value::Null(), Value::Null(),
                   Value::Null()});
  batch.AppendRow({Value::Int64(-7), Value::Double(-0.25),
                   Value::String(""), Value::Date(0)});

  WireWriter w;
  EncodeBatchRows(batch, 0, batch.num_rows(), &w);
  WireReader r(w.data());
  RecordBatch decoded(schema);
  auto rows = DecodeBatchInto(&r, &decoded);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, 3u);
  EXPECT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(decoded.num_rows(), 3u);
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    EXPECT_EQ(batch.Row(i), decoded.Row(i)) << "row " << i;
  }
}

TEST(WireTest, QueryMetricsRoundTrip) {
  QueryMetrics m;
  m.total_ns = 123456;
  m.parse_ns = 11;
  m.plan_ns = 22;
  m.drain_ns = 33;
  m.scan.io_ns = 44;
  m.scan.rows_scanned = 1000;
  m.scan.rows_from_store = 600;
  m.scan.pushdown_rows_pruned = 17;
  m.scan.scans_using_recovered_store = 2;
  WireWriter w;
  EncodeQueryMetrics(m, &w);
  WireReader r(w.data());
  auto decoded = DecodeQueryMetrics(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(decoded->total_ns, m.total_ns);
  EXPECT_EQ(decoded->parse_ns, m.parse_ns);
  EXPECT_EQ(decoded->plan_ns, m.plan_ns);
  EXPECT_EQ(decoded->drain_ns, m.drain_ns);
  EXPECT_EQ(decoded->scan.io_ns, m.scan.io_ns);
  EXPECT_EQ(decoded->scan.rows_scanned, m.scan.rows_scanned);
  EXPECT_EQ(decoded->scan.rows_from_store, m.scan.rows_from_store);
  EXPECT_EQ(decoded->scan.pushdown_rows_pruned,
            m.scan.pushdown_rows_pruned);
  EXPECT_EQ(decoded->scan.scans_using_recovered_store,
            m.scan.scans_using_recovered_store);
}

/// ---- Admission control -------------------------------------------------

NoDbConfig TightAdmission() {
  NoDbConfig config;
  config.server_max_in_flight = 2;
  config.server_tenant_max_concurrent = 1;
  config.server_queue_timeout_ms = 50;
  return config;
}

TEST(AdmissionTest, TenantCapAndRelease) {
  AdmissionController admission(TightAdmission());
  uint32_t alice = obs::TenantIdFor("alice-cap");
  uint32_t bob = obs::TenantIdFor("bob-cap");

  auto first = admission.Admit(alice);
  ASSERT_TRUE(first.ok());
  // Same tenant is at its cap and times out; another tenant fits.
  auto second = admission.Admit(alice);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsUnavailable());
  auto other = admission.Admit(bob);
  EXPECT_TRUE(other.ok());

  first->Release();
  auto after_release = admission.Admit(alice);
  EXPECT_TRUE(after_release.ok());
}

TEST(AdmissionTest, GlobalCapTimesOut) {
  AdmissionController admission(TightAdmission());
  auto a = admission.Admit(obs::TenantIdFor("g1"));
  auto b = admission.Admit(obs::TenantIdFor("g2"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = admission.Admit(obs::TenantIdFor("g3"));
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsUnavailable());

  ServerStats stats;
  admission.FillStats(&stats);
  EXPECT_EQ(stats.in_flight, 2u);
  EXPECT_EQ(stats.queue_timeouts_total, 1u);
}

TEST(AdmissionTest, MemoryBudgetBoundsConcurrency) {
  NoDbConfig config;
  config.server_max_in_flight = 8;
  config.server_tenant_max_concurrent = 8;
  config.server_tenant_memory_budget = 32u << 20;
  config.server_query_memory_reserve = 16u << 20;  // 2 queries fit
  config.server_queue_timeout_ms = 50;
  AdmissionController admission(config);
  uint32_t tenant = obs::TenantIdFor("memory-bound");
  auto a = admission.Admit(tenant);
  auto b = admission.Admit(tenant);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = admission.Admit(tenant);
  EXPECT_FALSE(c.ok());
}

TEST(AdmissionTest, DrainFailsWaitersAndFutureAdmits) {
  NoDbConfig config = TightAdmission();
  config.server_queue_timeout_ms = 10000;  // waiter would block long
  AdmissionController admission(config);
  uint32_t tenant = obs::TenantIdFor("drain-tenant");
  auto held = admission.Admit(tenant);
  ASSERT_TRUE(held.ok());

  std::atomic<bool> waiter_done{false};
  Status waiter_status = Status::OK();
  std::thread waiter([&] {
    auto blocked = admission.Admit(tenant);
    waiter_status = blocked.status();
    waiter_done.store(true);
  });
  // Give the waiter time to enqueue, then drain: it must fail fast,
  // not after 10 s.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  admission.BeginDrain();
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
  EXPECT_TRUE(waiter_status.IsUnavailable());

  auto after = admission.Admit(tenant);
  EXPECT_FALSE(after.ok());
}

/// ---- Server fixture ----------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-server");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    path_ = dir_->FilePath("sales.csv");
    std::string content;
    const char* regions[] = {"north", "south", "east", "west"};
    for (int i = 0; i < 2000; ++i) {
      content += std::to_string(i);
      content += ",";
      content += regions[i % 4];
      content += ",";
      content += std::to_string((i * 7) % 100);
      content += ".5,";
      content += (i % 2 == 0) ? "1994-01-10" : "1995-03-20";
      content += "\n";
    }
    ASSERT_TRUE(WriteStringToFile(path_, content).ok());
    schema_ = Schema::Make({{"id", DataType::kInt64},
                            {"region", DataType::kString},
                            {"amount", DataType::kDouble},
                            {"day", DataType::kDate}});
    ASSERT_TRUE(
        catalog_.RegisterTable({"sales", path_, schema_, CsvDialect()})
            .ok());
  }

  NoDbConfig ServerConfig() {
    NoDbConfig config;
    config.rows_per_block = 256;
    config.server_result_batch_rows = 300;  // force multi-frame results
    return config;
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
  Catalog catalog_;
};

TEST_F(ServerTest, RemoteResultsAreByteIdenticalToInProcess) {
  NoDbConfig config = ServerConfig();
  NoDbEngine engine(catalog_, config);
  Server server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM sales",
      "SELECT region, COUNT(*) AS n, AVG(amount) AS avg_amount FROM sales "
      "WHERE day < DATE '1995-01-01' GROUP BY region ORDER BY region",
      "SELECT id, amount FROM sales WHERE id < 10 ORDER BY id",
      "SELECT * FROM sales WHERE region = 'north' AND amount > 50.0",
  };

  auto conn = ClientConnection::Connect("127.0.0.1", server.port(),
                                        "tenant-a", "identity-test");
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_EQ(conn->server_name(), "PostgresRaw");

  for (const std::string& sql : sqls) {
    auto remote = conn->Execute(sql);
    ASSERT_TRUE(remote.ok()) << sql << ": " << remote.status().ToString();
    auto local = engine.Execute(sql);
    ASSERT_TRUE(local.ok());
    // Byte identity, not just row-set equality: the remote shell must
    // print exactly what a local shell prints.
    EXPECT_EQ(remote->result.ToString(1u << 20),
              local->result.ToString(1u << 20))
        << sql;
    EXPECT_EQ(remote->result.CanonicalRows(), local->result.CanonicalRows());
    EXPECT_GT(remote->metrics.total_ns, 0);
    EXPECT_EQ(remote->metrics.sql, sql);
  }

  auto stats = server.Stats();
  EXPECT_EQ(stats.admitted_total, sqls.size());
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].name, "tenant-a");
  EXPECT_GT(stats.tenants[0].rows_served, 0u);

  auto metrics_text = conn->FetchMetrics(false);
  ASSERT_TRUE(metrics_text.ok());
  EXPECT_NE(metrics_text->find("server front end"), std::string::npos);
  auto metrics_prom = conn->FetchMetrics(true);
  ASSERT_TRUE(metrics_prom.ok());
  EXPECT_NE(metrics_prom->find("nodb_server_admitted_total"),
            std::string::npos);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(ServerTest, EightClientStressMatchesExecuteConcurrent) {
  NoDbConfig config = ServerConfig();
  NoDbEngine engine(catalog_, config);
  Server server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> sqls;
  const char* regions[] = {"north", "south", "east", "west"};
  for (int i = 0; i < 48; ++i) {
    switch (i % 4) {
      case 0:
        sqls.push_back("SELECT COUNT(*) FROM sales WHERE id > " +
                       std::to_string((i * 31) % 1500));
        break;
      case 1:
        sqls.push_back(std::string("SELECT region, SUM(amount) AS s FROM "
                                   "sales WHERE region = '") +
                       regions[i % 4] + "' GROUP BY region");
        break;
      case 2:
        sqls.push_back("SELECT id, region FROM sales WHERE id < " +
                       std::to_string(8 + i) + " ORDER BY id");
        break;
      default:
        sqls.push_back("SELECT AVG(amount) AS a FROM sales WHERE day > "
                       "DATE '1994-06-01'");
        break;
    }
  }

  // Reference: the same batch through the in-process concurrent path.
  NoDbEngine reference(catalog_, config);
  ConcurrentBatchOutcome expected = reference.ExecuteConcurrent(sqls, 8);
  ASSERT_EQ(expected.failures(), 0u);

  constexpr int kClients = 8;
  std::vector<std::string> remote_rendered(sqls.size());
  std::vector<Status> remote_status(sqls.size(), Status::OK());
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = ClientConnection::Connect(
          "127.0.0.1", server.port(), "stress-tenant",
          "client-" + std::to_string(c));
      if (!conn.ok()) return;  // recorded as failed queries below
      for (size_t i = next.fetch_add(1); i < sqls.size();
           i = next.fetch_add(1)) {
        auto outcome = conn->Execute(sqls[i]);
        if (!outcome.ok()) {
          remote_status[i] = outcome.status();
          continue;
        }
        remote_rendered[i] = outcome->result.ToString(1u << 20);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < sqls.size(); ++i) {
    ASSERT_TRUE(remote_status[i].ok())
        << sqls[i] << ": " << remote_status[i].ToString();
    EXPECT_EQ(remote_rendered[i],
              expected.reports[i].result.ToString(1u << 20))
        << sqls[i];
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(ServerTest, MalformedFramesGetErrorsAndLeakNoSlots) {
  NoDbConfig config = ServerConfig();
  NoDbEngine engine(catalog_, config);
  Server server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  auto dial = [&]() -> int {
    auto fd = ConnectTcp("127.0.0.1", server.port());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(WriteFully(*fd, kMagic, sizeof(kMagic)).ok());
    return *fd;
  };
  auto hello = [&](int fd) {
    WireWriter w;
    w.PutU16(kProtocolVersion);
    w.PutString("fuzz-tenant");
    w.PutString("fuzz");
    ASSERT_TRUE(WriteFrame(fd, FrameType::kHello, w.data()).ok());
    auto reply = ReadFrame(fd, 1u << 20);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, FrameType::kHelloOk);
  };

  {
    // Truncated QUERY payload (string length promises too much):
    // ERROR, connection survives and still executes queries.
    int fd = dial();
    hello(fd);
    WireWriter w;
    w.PutU32(1000);  // length prefix, no bytes behind it
    ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery, w.data()).ok());
    auto reply = ReadFrame(fd, 1u << 20);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, FrameType::kError);

    WireWriter q;
    q.PutString("SELECT COUNT(*) FROM sales");
    ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery, q.data()).ok());
    auto header = ReadFrame(fd, 1u << 20);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->type, FrameType::kResultHeader);
    for (;;) {
      auto frame = ReadFrame(fd, 1u << 20);
      ASSERT_TRUE(frame.ok());
      if (frame->type == FrameType::kResultDone) break;
      ASSERT_EQ(frame->type, FrameType::kResultBatch);
    }
    CloseFd(fd);
  }
  {
    // Unknown frame type: ERROR, connection survives.
    int fd = dial();
    hello(fd);
    ASSERT_TRUE(
        WriteFully(fd, "\x00\x00\x00\x00\x7f", 5).ok());  // type 127, len 0
    auto reply = ReadFrame(fd, 1u << 20);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, FrameType::kError);
    CloseFd(fd);
  }
  {
    // Oversized length prefix: ERROR (OutOfRange), then server closes.
    int fd = dial();
    hello(fd);
    WireWriter header;
    header.PutU32(0x7fffffff);
    header.PutU8(static_cast<uint8_t>(FrameType::kQuery));
    ASSERT_TRUE(WriteFully(fd, header.data().data(), 5).ok());
    auto reply = ReadFrame(fd, 1u << 20);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, FrameType::kError);
    auto eof = ReadFrame(fd, 1u << 20);
    EXPECT_FALSE(eof.ok());
    CloseFd(fd);
  }
  {
    // Garbage that is neither the magic nor HTTP: one 400, then close.
    auto fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFully(*fd, "garbage\r\n\r\n", 11).ok());
    char buf[256];
    Status drained = ReadFully(*fd, buf, 12);  // "HTTP/1.0 400"
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(std::string(buf, 12), "HTTP/1.0 400");
    CloseFd(*fd);
  }

  // No admission slot leaked by any of the above, and the server still
  // serves a healthy client end to end.
  auto stats = server.Stats();
  EXPECT_EQ(stats.in_flight, 0u);
  auto conn = ClientConnection::Connect("127.0.0.1", server.port(),
                                        "after-fuzz", "sanity");
  ASSERT_TRUE(conn.ok());
  auto outcome = conn->Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(ServerTest, AdmissionRejectionOverTheWire) {
  NoDbConfig config = ServerConfig();
  config.server_max_in_flight = 1;
  config.server_queue_timeout_ms = 50;
  NoDbEngine engine(catalog_, config);
  Server server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the only slot directly, deterministically.
  auto held = server.admission().Admit(obs::TenantIdFor("occupier"));
  ASSERT_TRUE(held.ok());

  auto conn = ClientConnection::Connect("127.0.0.1", server.port(),
                                        "rejected-tenant", "client");
  ASSERT_TRUE(conn.ok());
  auto outcome = conn->Execute("SELECT COUNT(*) FROM sales");
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsUnavailable())
      << outcome.status().ToString();

  // The connection survives a rejection; releasing the slot unblocks.
  held->Release();
  auto retry = conn->Execute("SELECT COUNT(*) FROM sales");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();

  auto stats = server.Stats();
  EXPECT_GE(stats.rejected_total, 1u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(ServerTest, CancelledQueryReleasesItsAdmissionSlot) {
  NoDbConfig config = ServerConfig();
  config.server_max_in_flight = 1;
  config.server_queue_timeout_ms = 100;
  AdmissionController admission(config);
  NoDbEngine engine(catalog_, config);
  uint32_t tenant = obs::TenantIdFor("cancel-tenant");

  {
    auto ticket = admission.Admit(tenant);
    ASSERT_TRUE(ticket.ok());
    QueryCancelFlag cancel;
    cancel.Cancel();  // fires before the first batch boundary
    QuerySession session(&engine, "cancel-client");
    auto outcome =
        session.ExecuteStreaming("SELECT COUNT(*) FROM sales", nullptr,
                                 &cancel);
    EXPECT_FALSE(outcome.ok());
    EXPECT_TRUE(outcome.status().IsCancelled())
        << outcome.status().ToString();
    // Ticket goes out of scope here exactly as in ServerSession's
    // HandleQuery: cancellation must not leak the slot.
  }
  auto after = admission.Admit(tenant);
  EXPECT_TRUE(after.ok());

  // The engine-level batch path honours the same flag.
  QueryCancelFlag cancel;
  cancel.Cancel();
  auto batch = engine.ExecuteConcurrent(
      {"SELECT COUNT(*) FROM sales", "SELECT COUNT(*) FROM sales"}, 2,
      &cancel);
  ASSERT_EQ(batch.reports.size(), 2u);
  for (const auto& report : batch.reports) {
    EXPECT_TRUE(report.status.IsCancelled());
  }
}

TEST_F(ServerTest, HttpQueryAndMetrics) {
  NoDbConfig config = ServerConfig();
  NoDbEngine engine(catalog_, config);
  Server server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  auto http = [&](const std::string& request) {
    auto fd = ConnectTcp("127.0.0.1", server.port());
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(WriteFully(*fd, request.data(), request.size()).ok());
    std::string response;
    char buf[4096];
    for (;;) {
      Status status = ReadFully(*fd, buf, 1);
      if (!status.ok()) break;  // server closes after the response
      response.push_back(buf[0]);
    }
    CloseFd(*fd);
    return response;
  };

  std::string sql = "SELECT region, COUNT(*) AS n FROM sales "
                    "WHERE id < 8 GROUP BY region ORDER BY region";
  std::string response = http(
      "POST /query HTTP/1.0\r\nX-NoDB-Tenant: curl-tenant\r\n"
      "Content-Length: " + std::to_string(sql.size()) + "\r\n\r\n" + sql);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/csv"), std::string::npos);
  EXPECT_NE(response.find("region,n"), std::string::npos) << response;
  EXPECT_NE(response.find("east,2"), std::string::npos) << response;

  std::string metrics = http("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("nodb_server_admitted_total"), std::string::npos);

  std::string bad_sql = http(
      "POST /query HTTP/1.0\r\nContent-Length: 9\r\n\r\nNOT SQL!!");
  EXPECT_NE(bad_sql.find("HTTP/1.0 400"), std::string::npos);

  std::string not_found = http("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(not_found.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST_F(ServerTest, GracefulDrainWritesSnapshots) {
  NoDbConfig config = ServerConfig();
  config.snapshot_mode = SnapshotMode::kManual;  // sidecar next to the CSV
  NoDbEngine engine(catalog_, config);
  Server server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  auto conn = ClientConnection::Connect("127.0.0.1", server.port(),
                                        "drain-tenant", "client");
  ASSERT_TRUE(conn.ok());
  auto outcome = conn->Execute("SELECT COUNT(*) FROM sales WHERE id > 10");
  ASSERT_TRUE(outcome.ok());

  // The shell's \shutdown: GOODBYE comes back, Wait() unblocks, the
  // drain saves the adaptive state built by the query above.
  ASSERT_TRUE(conn->SendShutdown().ok());
  server.Wait();
  ASSERT_TRUE(server.Shutdown().ok());

  auto sidecar = ReadFileToString(path_ + ".nodbmeta");
  ASSERT_TRUE(sidecar.ok())
      << "graceful drain must save snapshots: " << sidecar.status().ToString();
  EXPECT_FALSE(sidecar->empty());

  // A rejected late query: the server no longer accepts connections.
  auto late = ClientConnection::Connect("127.0.0.1", server.port(),
                                        "late", "client");
  EXPECT_FALSE(late.ok());
}

TEST_F(ServerTest, RemoteShutdownCanBeDisabled) {
  NoDbConfig config = ServerConfig();
  config.server_allow_remote_shutdown = false;
  NoDbEngine engine(catalog_, config);
  Server server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  auto conn = ClientConnection::Connect("127.0.0.1", server.port(),
                                        "tenant", "client");
  ASSERT_TRUE(conn.ok());
  Status status = conn->SendShutdown();
  EXPECT_FALSE(status.ok());
  // The refusal must not have drained anything.
  auto outcome = conn->Execute("SELECT COUNT(*) FROM sales");
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

/// ---- Per-tenant partitioning of the storage tiers ----------------------

TEST(TenantTest, InterningIsStableAndNamed) {
  uint32_t a = obs::TenantIdFor("intern-a");
  uint32_t b = obs::TenantIdFor("intern-b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(obs::TenantIdFor("intern-a"), a);
  EXPECT_EQ(obs::TenantName(a), "intern-a");
  EXPECT_EQ(obs::TenantName(0), "");
  EXPECT_EQ(obs::ScopedTenantLabel::CurrentId(), 0u);
  {
    obs::ScopedTenantLabel outer(a);
    EXPECT_EQ(obs::ScopedTenantLabel::CurrentId(), a);
    {
      obs::ScopedTenantLabel inner(b);
      EXPECT_EQ(obs::ScopedTenantLabel::CurrentId(), b);
    }
    EXPECT_EQ(obs::ScopedTenantLabel::CurrentId(), a);
  }
  EXPECT_EQ(obs::ScopedTenantLabel::CurrentId(), 0u);
}

std::shared_ptr<const ColumnVector> SegmentOfBytes(size_t n) {
  auto col = std::make_shared<ColumnVector>(DataType::kInt64);
  for (size_t i = 0; i < n / sizeof(int64_t); ++i) {
    col->AppendInt64(static_cast<int64_t>(i));
  }
  return col;
}

TEST(TenantTest, SegmentStoreEvictsOverShareOwnerFirst) {
  // Budget fits ~4 segments; tenant A promotes 3, tenant B promotes 2.
  // A is over its fair share (budget/2), so the fourth-plus promotions
  // evict A's oldest segments — B's stay resident.
  auto probe = SegmentOfBytes(1024);
  size_t seg_bytes;
  {
    SegmentStore sizer(1u << 20);
    sizer.Put(0, 0, probe, 0);
    seg_bytes = sizer.bytes_used();
  }
  SegmentStore store(seg_bytes * 4);
  uint32_t a = obs::TenantIdFor("store-a");
  uint32_t b = obs::TenantIdFor("store-b");
  {
    obs::ScopedTenantLabel label(a);
    store.Put(0, 0, SegmentOfBytes(1024), 0);
    store.Put(0, 1, SegmentOfBytes(1024), 0);
    store.Put(0, 2, SegmentOfBytes(1024), 0);
  }
  {
    obs::ScopedTenantLabel label(b);
    store.Put(1, 0, SegmentOfBytes(1024), 0);
    store.Put(1, 1, SegmentOfBytes(1024), 0);
  }
  // Over budget by one segment: the victim must be A's least recent
  // (attr 0, block 0), never B's.
  EXPECT_LE(store.bytes_used(), store.budget_bytes());
  EXPECT_FALSE(store.Contains(0, 0));
  EXPECT_TRUE(store.Contains(1, 0));
  EXPECT_TRUE(store.Contains(1, 1));
  EXPECT_EQ(store.bytes_used_by(a), 2 * seg_bytes);
  EXPECT_EQ(store.bytes_used_by(b), 2 * seg_bytes);
}

TEST(TenantTest, SegmentStoreKeepsTheSegmentItJustAdmitted) {
  // Tenants A and B each hold 1 KiB; tenant C then adds 2 KiB to a
  // budget one byte short of all three. C is the only owner over its
  // fair share, but the entry inserted last is never the victim: the
  // LRU tail (A's segment) goes instead.
  auto charged = [](size_t n) {
    SegmentStore sizer(1u << 20);
    sizer.Put(0, 0, SegmentOfBytes(n), 0);
    return sizer.bytes_used();
  };
  SegmentStore store(2 * charged(1024) + charged(2048) - 1);
  {
    obs::ScopedTenantLabel label(obs::TenantIdFor("newest-a"));
    store.Put(0, 0, SegmentOfBytes(1024), 0);
  }
  {
    obs::ScopedTenantLabel label(obs::TenantIdFor("newest-b"));
    store.Put(1, 0, SegmentOfBytes(1024), 0);
  }
  {
    obs::ScopedTenantLabel label(obs::TenantIdFor("newest-c"));
    store.Put(2, 0, SegmentOfBytes(2048), 0);
  }
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.Contains(2, 0));
  EXPECT_FALSE(store.Contains(0, 0));
  EXPECT_TRUE(store.Contains(1, 0));
  EXPECT_LE(store.bytes_used(), store.budget_bytes());
}

TEST(TenantTest, StatsCollectorSumsHeatAcrossTenants) {
  StatsCollector stats(Schema::Make({{"a", DataType::kInt64},
                                     {"b", DataType::kInt64},
                                     {"c", DataType::kInt64},
                                     {"d", DataType::kInt64}}));
  uint32_t a = obs::TenantIdFor("heat-a");
  uint32_t b = obs::TenantIdFor("heat-b");
  {
    obs::ScopedTenantLabel label(a);
    stats.RecordAccessHeat({0, 1});
    stats.RecordAccessHeat({0});
  }
  {
    obs::ScopedTenantLabel label(b);
    stats.RecordAccessHeat({1});
  }
  stats.RecordAccessHeat({2});  // untagged in-process work

  // Global heat is the sum every promotion decision sees.
  EXPECT_EQ(stats.access_heat(0), 2u);
  EXPECT_EQ(stats.access_heat(1), 2u);
  EXPECT_EQ(stats.access_heat(2), 1u);
}

}  // namespace
}  // namespace server
}  // namespace nodb
