// Remote estimation subsystem: wire-protocol round trips must be lossless
// (bit-exact doubles, every Query/Predicate feature), malformed and
// truncated input must be rejected without crashing either side, and the
// client/server pair over a real socket must serve values bit-identical to
// the in-process service.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <future>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "factorjoin/estimator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "query/serialize.h"
#include "query/subplan.h"
#include "service/estimator_service.h"
#include "service/model_registry.h"
#include "stats/snapshot.h"
#include "storage/database.h"
#include "util/bytes.h"

namespace fj {
namespace {

using net::EstimatorClient;
using net::EstimatorClientOptions;
using net::EstimatorServer;
using net::EstimatorServerOptions;
using net::Frame;
using net::MsgType;
using net::NetError;
using net::ProtocolError;
using net::RemoteError;

// ---------------------------------------------------------------------------
// Byte primitives.

TEST(BytesTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(0.1);
  w.Str("hello");
  w.Str("");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), 0.1);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, DoublesAreBitExact) {
  // -0.0, a denormal, an NaN payload, infinity: all must round-trip by
  // bits, not by value.
  for (uint64_t bits :
       {std::bit_cast<uint64_t>(-0.0), uint64_t{1},  // smallest denormal
        std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN()),
        std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity())}) {
    ByteWriter w;
    w.F64(std::bit_cast<double>(bits));
    ByteReader r(w.bytes());
    EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()), bits);
  }
}

TEST(BytesTest, TruncatedReadsThrow) {
  ByteWriter w;
  w.U64(7);
  ByteReader r(w.bytes().data(), 5);
  EXPECT_THROW(r.U64(), SerializeError);
  ByteWriter w2;
  w2.Str("hello");
  ByteReader r2(w2.bytes().data(), 6);  // length prefix says 5, 2 present
  EXPECT_THROW(r2.Str(), SerializeError);
}

// ---------------------------------------------------------------------------
// Query serialization.

// A query exercising every serializable feature: aliases + self join, every
// comparison op, Between, IN over mixed-type literals, LIKE / NOT LIKE
// patterns, IS NULL / IS NOT NULL, AND / OR / NOT nesting, and an explicit
// TRUE filter.
Query EveryFeatureQuery() {
  Query q;
  q.AddTable("title", "t").AddTable("cast_info", "ci");
  q.AddTable("name", "n1").AddTable("name", "n2");  // self join
  q.AddTable("movie_info");                         // default alias
  q.AddJoin("t", "id", "ci", "movie_id");
  q.AddJoin("ci", "person_id", "n1", "id");
  q.AddJoin("ci", "partner_id", "n2", "id");
  q.AddJoin("t", "id", "movie_info", "movie_id");

  q.SetFilter("t", Predicate::And({
      Predicate::Cmp("production_year", CmpOp::kGt, Literal::Int(1990)),
      Predicate::Cmp("production_year", CmpOp::kLe, Literal::Int(2005)),
      Predicate::Cmp("rating", CmpOp::kGe, Literal::Double(7.25)),
      Predicate::Cmp("kind", CmpOp::kNe, Literal::Str("video game")),
  }));
  q.SetFilter("ci", Predicate::Or({
      Predicate::Cmp("role_id", CmpOp::kEq, Literal::Int(1)),
      Predicate::Cmp("note", CmpOp::kLt, Literal::Str("b")),
      Predicate::Between("nr_order", Literal::Int(1), Literal::Int(10)),
  }));
  q.SetFilter("n1", Predicate::And({
      Predicate::Like("name", "%Scorsese%"),
      Predicate::IsNotNull("imdb_index"),
  }));
  q.SetFilter("n2", Predicate::Not(Predicate::Or({
      Predicate::NotLike("name", "A%"),
      Predicate::IsNull("gender"),
      Predicate::In("surname_pcode",
                    {Literal::Str("S62"), Literal::Int(3),
                     Literal::Double(0.5)}),
  })));
  q.SetFilter("movie_info", Predicate::True());
  return q;
}

TEST(QuerySerializeTest, EveryFeatureRoundTripsExactly) {
  Query q = EveryFeatureQuery();
  std::vector<uint8_t> bytes = SerializeQuery(q);
  Query back = DeserializeQuery(bytes);

  // Construction-lossless: same rendering, same canonical fingerprint, and
  // re-encoding gives the same bytes.
  EXPECT_EQ(back.ToString(), q.ToString());
  EXPECT_EQ(back.Fingerprint(), q.Fingerprint());
  EXPECT_EQ(SerializeQuery(back), bytes);
  ASSERT_EQ(back.NumTables(), q.NumTables());
  for (size_t i = 0; i < q.NumTables(); ++i) {
    EXPECT_EQ(back.tables()[i].alias, q.tables()[i].alias);
    EXPECT_EQ(back.tables()[i].table, q.tables()[i].table);
  }
  ASSERT_EQ(back.joins().size(), q.joins().size());
  // The explicitly set TRUE filter survives as a set filter.
  EXPECT_TRUE(back.HasFilter("movie_info"));
}

TEST(QuerySerializeTest, DoubleLiteralsAreBitExact) {
  Query q;
  q.AddTable("t");
  double value = 0.1 + 0.2;  // not representable as a round literal
  q.SetFilter("t", Predicate::Cmp("x", CmpOp::kLt, Literal::Double(value)));
  Query back = DeserializeQuery(SerializeQuery(q));
  EXPECT_EQ(std::bit_cast<uint64_t>(back.FilterFor("t")->value().d),
            std::bit_cast<uint64_t>(value));
}

TEST(QuerySerializeTest, EmptyQueryRoundTrips) {
  Query q;
  Query back = DeserializeQuery(SerializeQuery(q));
  EXPECT_EQ(back.NumTables(), 0u);
  EXPECT_EQ(back.Fingerprint(), q.Fingerprint());
}

TEST(QuerySerializeTest, EveryTruncationThrowsNotCrashes) {
  std::vector<uint8_t> bytes = SerializeQuery(EveryFeatureQuery());
  // Every strict prefix must be rejected as malformed — never accepted,
  // never a crash or over-read.
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(DeserializeQuery(prefix), SerializeError) << "len " << len;
  }
  // Trailing garbage is malformed too.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(DeserializeQuery(padded), SerializeError);
}

TEST(QuerySerializeTest, MalformedContentThrows) {
  {
    ByteWriter w;  // unknown predicate kind
    w.U8(200);
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    ByteWriter w;  // unknown literal type tag
    w.U8(static_cast<uint8_t>(Predicate::Kind::kCompare));
    w.Str("col");
    w.U8(static_cast<uint8_t>(CmpOp::kEq));
    w.U8(77);
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    ByteWriter w;  // unknown comparison op
    w.U8(static_cast<uint8_t>(Predicate::Kind::kCompare));
    w.Str("col");
    w.U8(99);
    EncodeLiteral(Literal::Int(1), &w);
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    // NOT-chain nested beyond the depth limit must throw, not overflow the
    // stack.
    ByteWriter w;
    for (int i = 0; i < 100000; ++i) {
      w.U8(static_cast<uint8_t>(Predicate::Kind::kNot));
    }
    w.U8(static_cast<uint8_t>(Predicate::Kind::kTrue));
    ByteReader r(w.bytes());
    EXPECT_THROW(DecodePredicate(&r), SerializeError);
  }
  {
    // Duplicate alias: structurally valid bytes, semantically bad query.
    ByteWriter w;
    w.U32(2);
    w.Str("a");
    w.Str("t1");
    w.Str("a");
    w.Str("t2");
    w.U32(0);
    w.U32(0);
    EXPECT_THROW(DeserializeQuery(w.bytes()), SerializeError);
  }
}

// ---------------------------------------------------------------------------
// Frames over a real socket pair.

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    net::CloseSocket(a);
    net::CloseSocket(b);
  }
};

TEST(ProtocolTest, FrameRoundTripsOverSocket) {
  SocketPair sp;
  std::vector<uint8_t> body = net::EncodeSubplansResp({{0b11, 42.5}});
  ASSERT_TRUE(net::WriteFrame(sp.a, MsgType::kSubplansResp, 7, body));
  auto frame = net::ReadFrame(sp.b);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kSubplansResp);
  EXPECT_EQ(frame->request_id, 7u);
  EXPECT_EQ(net::DecodeSubplansResp(frame->body).at(0b11), 42.5);
}

TEST(ProtocolTest, OversizedFrameRejectedBeforeAllocation) {
  SocketPair sp;
  ByteWriter w;
  w.U32(200 << 20);  // 200 MiB length prefix, no payload follows
  ASSERT_TRUE(net::SendAll(sp.a, w.bytes().data(), w.size()));
  EXPECT_THROW(net::ReadFrame(sp.b), ProtocolError);
}

// 3 and 4 are the single-estimate request and response retired in v6.
TEST(ProtocolTest, UnknownMessageTypeRejected) {
  for (uint8_t type : {uint8_t{99}, uint8_t{0}, uint8_t{3}, uint8_t{4}}) {
    SocketPair sp;
    ByteWriter w;
    w.U32(9);
    w.U8(type);
    w.U64(1);
    ASSERT_TRUE(net::SendAll(sp.a, w.bytes().data(), w.size()));
    EXPECT_THROW(net::ReadFrame(sp.b), ProtocolError) << "type " << +type;
  }
}

TEST(ProtocolTest, EofMidFrameIsOrderlyNullopt) {
  SocketPair sp;
  ByteWriter w;
  w.U32(100);  // promises 100 bytes
  w.U8(static_cast<uint8_t>(MsgType::kStatsReq));
  ASSERT_TRUE(net::SendAll(sp.a, w.bytes().data(), w.size()));
  net::CloseSocket(sp.a);
  sp.a = -1;
  EXPECT_FALSE(net::ReadFrame(sp.b).has_value());
}

// The library leaves the process's SIGPIPE disposition alone: under the
// default action a send to a closed peer fails instead of killing the
// process.
TEST(ProtocolTest, SendToAClosedPeerFailsWithoutSigpipe) {
  auto previous = std::signal(SIGPIPE, SIG_DFL);
  SocketPair sp;
  net::CloseSocket(sp.b);
  sp.b = -1;
  uint8_t byte = 1;
  EXPECT_FALSE(net::SendAll(sp.a, &byte, 1));
  std::signal(SIGPIPE, previous);
}

TEST(ProtocolTest, SubplansReqMaskCountValidated) {
  Query q;
  q.AddTable("t");
  ByteWriter w;
  w.Str("some-model");
  w.U8(0);  // flags
  EncodeQuery(q, &w);
  w.U32(1u << 30);  // claims 2^30 masks with no bytes behind them
  try {
    net::DecodeSubplansReq(w.bytes());
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("count"), std::string::npos)
        << e.what();
  }
}

// The server answers each requested mask once, so a response naming a mask
// twice is malformed; a request may repeat a mask.
TEST(ProtocolTest, SubplansRespRejectsARepeatedMask) {
  ByteWriter w;
  w.U32(2);
  w.U64(3);
  w.F64(7.0);
  w.U64(3);
  w.F64(99.0);
  w.U8(0);  // no trace
  EXPECT_THROW(net::DecodeSubplansResp(w.bytes()), ProtocolError);
  EXPECT_THROW(net::DecodeSubplansRespFull(w.bytes()), ProtocolError);

  Query q;
  q.AddTable("t");
  net::SubplansReq req =
      net::DecodeSubplansReq(net::EncodeSubplansReq("", q, {1, 1}));
  EXPECT_EQ(req.masks, (std::vector<uint64_t>{1, 1}));
}

TEST(ProtocolTest, RequestBodiesCarryTheModelId) {
  Query q;
  q.AddTable("t");
  net::SubplansReq sub =
      net::DecodeSubplansReq(net::EncodeSubplansReq("m2", q, {1}));
  EXPECT_EQ(sub.model, "m2");
  EXPECT_EQ(sub.query.ToString(), q.ToString());
  ASSERT_EQ(sub.masks.size(), 1u);

  net::NotifyUpdateReq upd =
      net::DecodeNotifyUpdateReq(net::EncodeNotifyUpdateReq("m3", "orders"));
  EXPECT_EQ(upd.model, "m3");
  EXPECT_EQ(upd.table, "orders");

  EXPECT_EQ(net::DecodeStatsReq(net::EncodeStatsReq("m4")), "m4");
  // "" routes to the default model.
  EXPECT_EQ(net::DecodeStatsReq(net::EncodeStatsReq("")), "");
}

// ServiceStats with a distinct value in every counter and non-empty
// histograms.
ServiceStats DistinctStats() {
  ServiceStats stats;
  uint64_t value = 1000;
  for (const ServiceCounter& counter : kServiceCounters) {
    counter.Of(stats) = value += 7;
  }
  obs::LatencyHistogram lat;
  for (uint64_t v : {10, 10, 45, 800, 123456}) lat.Record(v);
  stats.latency = lat.Snapshot();
  obs::LatencyHistogram est_stage;
  est_stage.Record(700);
  stats.stages[static_cast<size_t>(obs::Stage::kEstimate)] =
      est_stage.Snapshot();
  return stats;
}

using CounterPairs = std::vector<std::pair<std::string, uint64_t>>;

// A stats body: the `extra` pairs, then every counter of DistinctStats(),
// then empty histograms. The pair count claims `overrun` more pairs than
// the body holds.
std::vector<uint8_t> StatsBody(const CounterPairs& extra,
                               uint32_t overrun = 0) {
  ServiceStats stats = DistinctStats();
  ByteWriter w;
  w.U32(static_cast<uint32_t>(extra.size() + std::size(kServiceCounters)) +
        overrun);
  for (const auto& [name, value] : extra) {
    w.Str(name);
    w.U64(value);
  }
  for (const ServiceCounter& counter : kServiceCounters) {
    w.Str(counter.name);
    w.U64(counter.Of(stats));
  }
  obs::EncodeHistogramSnapshot({}, &w);
  w.U8(static_cast<uint8_t>(obs::kNumStages));
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    obs::EncodeHistogramSnapshot({}, &w);
  }
  return w.Take();
}

TEST(ProtocolTest, ServiceStatsRoundTrip) {
  ServiceStats stats = DistinctStats();
  ServiceStats back = net::DecodeServiceStats(net::EncodeServiceStats(stats));
  for (const ServiceCounter& counter : kServiceCounters) {
    EXPECT_EQ(counter.Of(back), counter.Of(stats)) << counter.name;
  }
  // The wire carries full histograms; quantiles are re-derived on decode,
  // never trusted from the peer.
  EXPECT_EQ(back.latency.count, stats.latency.count);
  EXPECT_EQ(back.latency.sum, stats.latency.sum);
  EXPECT_EQ(back.latency.max, stats.latency.max);
  EXPECT_EQ(back.latency.buckets, stats.latency.buckets);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(back.stages[i].count, stats.stages[i].count) << "stage " << i;
    EXPECT_EQ(back.stages[i].buckets, stats.stages[i].buckets);
  }
  // Decoded quantiles come from the shipped histogram.
  ServiceStats expect = stats;
  expect.RefreshQuantiles();
  EXPECT_EQ(back.p50_micros, expect.p50_micros);
  EXPECT_EQ(back.p90_micros, expect.p90_micros);
  EXPECT_EQ(back.p99_micros, expect.p99_micros);
  EXPECT_EQ(back.p999_micros, expect.p999_micros);
  EXPECT_EQ(back.max_micros, 123456.0);
}

// Names this build does not know (a newer peer's counters) are skipped; a
// name sent twice, a pair count past the end of the frame and every
// truncation are malformed.
TEST(ProtocolTest, ServiceStatsNameValueBody) {
  ServiceStats back = net::DecodeServiceStats(
      StatsBody({{"fj_from_a_newer_peer_total", 5}, {"", 6}}));
  ServiceStats expect = DistinctStats();
  for (const ServiceCounter& counter : kServiceCounters) {
    EXPECT_EQ(counter.Of(back), counter.Of(expect)) << counter.name;
  }

  EXPECT_THROW(
      net::DecodeServiceStats(StatsBody({{"fj_subplan_requests_total", 1}})),
      SerializeError);
  EXPECT_THROW(net::DecodeServiceStats(StatsBody(
                   {{"fj_unknown_total", 1}, {"fj_unknown_total", 2}})),
               SerializeError);
  for (uint32_t overrun : {1u, 1000u, UINT32_MAX - 100}) {
    EXPECT_THROW(net::DecodeServiceStats(StatsBody({}, overrun)),
                 SerializeError)
        << "overrun " << overrun;
  }
  std::vector<uint8_t> body = net::EncodeServiceStats(DistinctStats());
  for (size_t len = 0; len < body.size(); ++len) {
    std::vector<uint8_t> prefix(body.begin(),
                                body.begin() + static_cast<long>(len));
    EXPECT_THROW(net::DecodeServiceStats(prefix), SerializeError)
        << "len " << len;
  }
}

TEST(ProtocolTest, ServiceStatsRejectsWrongStageCount) {
  // A stats body claiming a different stage-histogram count than this
  // build's obs::kNumStages must be rejected, not misparsed.
  ServiceStats stats;
  std::vector<uint8_t> body = net::EncodeServiceStats(stats);
  // The stage-count byte precedes the kNumStages empty stage histograms;
  // each empty histogram encodes to 28 bytes (3×u64 + u32, no entries).
  size_t stage_count_pos = body.size() - obs::kNumStages * 28 - 1;
  ASSERT_EQ(body[stage_count_pos], obs::kNumStages);
  body[stage_count_pos] = obs::kNumStages + 1;
  EXPECT_THROW(net::DecodeServiceStats(body), SerializeError);
}

// ---------------------------------------------------------------------------
// Client/server end to end (loopback TCP + Unix socket).

Database MakeDb() {
  Database db;
  Table* users = db.AddTable("users");
  Column* u_id = users->AddColumn("id", ColumnType::kInt64);
  Column* u_age = users->AddColumn("age", ColumnType::kInt64);
  for (int i = 0; i < 500; ++i) {
    u_id->AppendInt(i);
    u_age->AppendInt(18 + (i * 7) % 60);
  }
  Table* orders = db.AddTable("orders");
  Column* o_user = orders->AddColumn("user_id", ColumnType::kInt64);
  Column* o_item = orders->AddColumn("item_id", ColumnType::kInt64);
  Column* o_amount = orders->AddColumn("amount", ColumnType::kInt64);
  for (int i = 0; i < 6000; ++i) {
    int user = (i * i + 17 * i) % 500;
    user = user % (1 + user % 50);
    o_user->AppendInt(user);
    o_item->AppendInt((i * 13) % 200);
    o_amount->AppendInt((i * 37) % 500);
  }
  Table* items = db.AddTable("items");
  Column* i_id = items->AddColumn("id", ColumnType::kInt64);
  Column* i_price = items->AddColumn("price", ColumnType::kInt64);
  for (int i = 0; i < 200; ++i) {
    i_id->AppendInt(i);
    i_price->AppendInt((i * 11) % 90);
  }
  db.AddJoinRelation({"users", "id"}, {"orders", "user_id"});
  db.AddJoinRelation({"orders", "item_id"}, {"items", "id"});
  return db;
}

Query ChainQuery(int age_lo, int amount_hi) {
  Query q;
  q.AddTable("users", "u").AddTable("orders", "o").AddTable("items", "i");
  q.AddJoin("u", "id", "o", "user_id");
  q.AddJoin("o", "item_id", "i", "id");
  q.SetFilter("u", Predicate::Cmp("age", CmpOp::kGt, Literal::Int(age_lo)));
  q.SetFilter("o", Predicate::Cmp("amount", CmpOp::kLt,
                                  Literal::Int(amount_hi)));
  return q;
}

// Everything a remote test needs: trained estimator, service, server on an
// ephemeral loopback port, connected client.
struct RemoteStack {
  Database db = MakeDb();
  FactorJoinEstimator estimator;
  EstimatorService service;
  EstimatorServer server;
  std::unique_ptr<EstimatorClient> client;

  explicit RemoteStack(EstimatorServerOptions server_options = {})
      : estimator(db,
                  [] {
                    FactorJoinConfig c;
                    c.num_bins = 32;
                    return c;
                  }()),
        service(estimator, {.num_threads = 2}),
        server(service, std::move(server_options)) {
    server.Start();
    EstimatorClientOptions client_options;
    client_options.endpoint = server.endpoint();
    client = std::make_unique<EstimatorClient>(client_options);
    client->Connect();
  }
};

using Estimates = std::unordered_map<uint64_t, double>;

// One query's own estimate over the wire: the batch of its full alias mask.
double Remote(EstimatorClient& client, const Query& q) {
  return client.EstimateSubplans(q, {q.AllAliases()}).at(q.AllAliases());
}

// The same batch asked of the estimator directly.
double Direct(const CardinalityEstimator& estimator, const Query& q) {
  return estimator.EstimateSubplans(q, {q.AllAliases()}).at(q.AllAliases());
}

// Double literals without a fixed-point code (NaN, 1e13) decode on the
// server into the null code and are served like any other filter.
TEST(RemoteTest, DoubleLiteralsWithoutACodeAreServed) {
  RemoteStack stack;
  Query q = ChainQuery(30, 250);
  q.SetFilter("i", Predicate::Or({
      Predicate::Cmp("price", CmpOp::kLt, Literal::Double(std::nan(""))),
      Predicate::Cmp("price", CmpOp::kLt, Literal::Double(1e13)),
  }));
  EXPECT_EQ(std::bit_cast<uint64_t>(Remote(*stack.client, q)),
            std::bit_cast<uint64_t>(Direct(stack.estimator, q)));
}

// The acceptance-criteria shape: EstimateSubplans through a socket returns
// values bit-identical to the in-process service.
TEST(RemoteTest, SubplansBitIdenticalToInProcess) {
  RemoteStack stack;
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  auto remote = stack.client->EstimateSubplans(q, masks);
  auto local = stack.service.EstimateSubplans(q, masks);
  ASSERT_EQ(remote.size(), local.size());
  for (uint64_t mask : masks) {
    EXPECT_EQ(remote.at(mask), local.at(mask)) << "mask " << mask;
  }
}

TEST(RemoteTest, UnixDomainSocketWorks) {
  EstimatorServerOptions options;
  options.endpoint.unix_path =
      "/tmp/fj_net_test_" + std::to_string(::getpid()) + ".sock";
  RemoteStack stack(options);
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(Remote(*stack.client, q), Direct(stack.estimator, q));
}

TEST(RemoteTest, PipelinedRequestsAllResolveCorrectly) {
  RemoteStack stack;
  constexpr int kInFlight = 64;
  std::vector<Query> queries;
  std::vector<std::future<Estimates>> futures;
  for (int i = 0; i < kInFlight; ++i) {
    queries.push_back(ChainQuery(20 + i % 30, 100 + (i * 13) % 400));
    futures.push_back(stack.client->EstimateSubplansAsync(
        queries.back(), {queries.back().AllAliases()}));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(futures[i].get().at(queries[i].AllAliases()),
              Direct(stack.estimator, queries[i]));
  }
}

TEST(RemoteTest, ConcurrentClientsShareOneServer) {
  RemoteStack stack;
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      EstimatorClientOptions options;
      options.endpoint = stack.server.endpoint();
      EstimatorClient client(options);
      for (int i = 0; i < 8; ++i) {
        Query q = ChainQuery(20 + (c * 8 + i) % 30, 150 + i * 20);
        if (Remote(client, q) != Direct(stack.estimator, q)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(stack.server.Stats().connections_accepted, 5u);
}

TEST(RemoteTest, ServerErrorsArriveAsRemoteError) {
  RemoteStack stack;
  Query disconnected;
  disconnected.AddTable("users", "u").AddTable("items", "i");
  try {
    Remote(*stack.client, disconnected);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    // The server forwards the estimator's message.
    EXPECT_NE(std::string(e.what()).find("join"), std::string::npos);
  }
  // The connection survives a request-scoped error.
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(Remote(*stack.client, q), Direct(stack.estimator, q));
}

TEST(RemoteTest, NotifyUpdateAndStatsRpcs) {
  RemoteStack stack;
  Query q = ChainQuery(30, 250);
  Remote(*stack.client, q);
  EXPECT_EQ(stack.client->NotifyUpdate("orders"), 1u);
  EXPECT_EQ(stack.service.Epoch(), 1u);
  ServiceStats stats = stack.client->Stats();
  EXPECT_EQ(stats.subplan_requests, 1u);
  EXPECT_EQ(stats.epoch, 1u);
}

/// Polls `done` every 5 ms for up to 2 s; false if it never held.
template <typename Pred>
bool Eventually(Pred done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// A raw connection to `endpoint` that has completed the handshake.
int RawConnect(const net::Endpoint& endpoint) {
  int fd = net::ConnectSocket(endpoint);
  EXPECT_TRUE(net::WriteFrame(fd, MsgType::kHello, 0, net::EncodeHello({})));
  auto ack = net::ReadFrame(fd);
  EXPECT_TRUE(ack.has_value() && ack->type == MsgType::kHelloAck);
  return fd;
}

TEST(RemoteTest, MalformedFrameDropsOnlyThatConnection) {
  RemoteStack stack;
  // A raw attacker connection: handshake, then garbage.
  int fd = RawConnect(stack.server.endpoint());
  ByteWriter garbage;
  garbage.U32(9);
  garbage.U8(99);  // unknown type
  garbage.U64(1);
  ASSERT_TRUE(net::SendAll(fd, garbage.bytes().data(), garbage.size()));
  // The server answers with a connection-level error and closes.
  auto error = net::ReadFrame(fd);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->type, MsgType::kError);
  EXPECT_EQ(error->request_id, 0u);
  EXPECT_FALSE(net::ReadFrame(fd).has_value());
  net::CloseSocket(fd);

  // The well-behaved client is unaffected.
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(Remote(*stack.client, q), Direct(stack.estimator, q));
  EXPECT_GE(stack.server.Stats().protocol_errors, 1u);
}

TEST(RemoteTest, TruncatedFrameMidBodyDropsConnection) {
  RemoteStack stack;
  int fd = RawConnect(stack.server.endpoint());
  // A frame whose length promises more than the body delivers: the body
  // claims to be a SubplansReq but is cut mid-query.
  std::vector<uint8_t> good = net::EncodeFrame(
      MsgType::kSubplansReq, 1,
      net::EncodeSubplansReq("", ChainQuery(30, 250), {0b111}));
  // Rewrite the length prefix to only cover half the body, producing a
  // syntactically complete frame with a truncated query inside.
  ByteWriter w;
  uint32_t half = static_cast<uint32_t>((good.size() - 4) / 2);
  w.U32(half);
  ASSERT_TRUE(net::SendAll(fd, w.bytes().data(), w.size()));
  ASSERT_TRUE(net::SendAll(fd, good.data() + 4, half));
  auto error = net::ReadFrame(fd);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->type, MsgType::kError);
  net::CloseSocket(fd);
  // Server still healthy.
  EXPECT_EQ(Remote(*stack.client, ChainQuery(30, 250)),
            Direct(stack.estimator, ChainQuery(30, 250)));
}

TEST(RemoteTest, HandshakeVersionMismatchRejected) {
  RemoteStack stack;
  // A from-the-future version and every retired one (v1 requests lack the
  // model-id field; v2 lacks the trace flag and histogram stats bodies; v3
  // lacks the suppressed counter; v4 stats counters are positional; v5
  // still speaks the single-estimate message pair) must be rejected
  // cleanly at the handshake, never half-spoken.
  for (uint16_t version : {uint16_t{99}, uint16_t{1}, uint16_t{2},
                           uint16_t{3}, uint16_t{4}, uint16_t{5}}) {
    int fd = net::ConnectSocket(stack.server.endpoint());
    net::Hello hello;
    hello.version = version;
    ASSERT_TRUE(net::WriteFrame(fd, MsgType::kHello, 0,
                                net::EncodeHello(hello)));
    auto resp = net::ReadFrame(fd);
    ASSERT_TRUE(resp.has_value()) << "version " << version;
    EXPECT_EQ(resp->type, MsgType::kError);
    std::string message = net::DecodeError(resp->body);
    EXPECT_NE(message.find("version"), std::string::npos);
    EXPECT_FALSE(net::ReadFrame(fd).has_value());
    net::CloseSocket(fd);
  }
}

TEST(RemoteTest, TracedRequestsCarryServerStageBreakdown) {
  RemoteStack stack;
  Query q = ChainQuery(30, 250);
  auto masks = EnumerateConnectedSubsets(q, 1);

  // Traced batch: same values as untraced, plus a server-side breakdown.
  auto untraced = stack.client->EstimateSubplans(q, masks);
  EstimatorClient::TracedSubplans traced =
      stack.client->EstimateSubplansTraced(q, masks);
  ASSERT_TRUE(traced.has_trace);
  ASSERT_EQ(traced.estimates.size(), untraced.size());
  for (const auto& [mask, value] : untraced) {
    EXPECT_EQ(traced.estimates.at(mask), value);
  }
  // total covers the service-side life of the request; the net stages the
  // server measured for this request (decode at minimum, since a frame was
  // parsed) ride along. respond/socket_write happen after the response
  // body is sealed and can only appear in the aggregate histograms.
  EXPECT_GT(traced.trace.total_micros, 0u);
  EXPECT_EQ(traced.trace.Get(obs::Stage::kRespond), 0u);
  EXPECT_EQ(traced.trace.Get(obs::Stage::kSocketWrite), 0u);

  // Untraced requests stay trace-free on the wire (flag off), seen on a
  // raw connection so nothing but the frame itself is inspected.
  int fd = RawConnect(stack.server.endpoint());
  ASSERT_TRUE(net::WriteFrame(fd, MsgType::kSubplansReq, 1,
                              net::EncodeSubplansReq("", q, masks)));
  auto resp = net::ReadFrame(fd);
  net::CloseSocket(fd);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->type, MsgType::kSubplansResp);
  net::SubplansResp raw = net::DecodeSubplansRespFull(resp->body);
  EXPECT_FALSE(raw.has_trace);
  EXPECT_EQ(raw.estimates, untraced);

  // The aggregate net-stage histograms on the server saw every frame.
  net::ServerStats server_stats = stack.server.Stats();
  EXPECT_GT(
      server_stats.stages[static_cast<size_t>(obs::Stage::kDecode)].count,
      0u);
  EXPECT_GT(server_stats.bytes_received, 0u);
  EXPECT_GT(server_stats.bytes_sent, 0u);
}

TEST(RemoteTest, RequestBeforeHandshakeRejected) {
  RemoteStack stack;
  int fd = net::ConnectSocket(stack.server.endpoint());
  ASSERT_TRUE(net::WriteFrame(fd, MsgType::kStatsReq, 1, {}));
  auto resp = net::ReadFrame(fd);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  net::CloseSocket(fd);
}

TEST(RemoteTest, ClientReconnectsAfterServerRestart) {
  Database db = MakeDb();
  FactorJoinConfig config;
  config.num_bins = 32;
  FactorJoinEstimator estimator(db, config);
  EstimatorService service(estimator, {.num_threads = 2});

  auto server = std::make_unique<EstimatorServer>(service);
  server->Start();
  uint16_t port = server->port();

  EstimatorClientOptions client_options;
  client_options.endpoint.port = port;
  EstimatorClient client(client_options);
  Query q = ChainQuery(30, 250);
  EXPECT_EQ(Remote(client, q), Direct(estimator, q));

  // Kill the server: outstanding connection dies; the next request fails.
  server.reset();
  EXPECT_THROW(Remote(client, q), std::runtime_error);

  // Restart on the same port: the client redials on the next request.
  EstimatorServerOptions restart_options;
  restart_options.endpoint.port = port;
  EstimatorServer restarted(service, restart_options);
  restarted.Start();
  EXPECT_EQ(Remote(client, q), Direct(estimator, q));
}

// fj_server_connections_active counts a connection until its reader exits,
// not until the next accept reaps it.
TEST(RemoteTest, ClosedConnectionsLeaveTheActiveGauge) {
  RemoteStack stack;
  stack.client.reset();
  Query q = ChainQuery(30, 250);
  for (int i = 0; i < 3; ++i) {
    // Each client connects after the previous one has closed.
    EstimatorClient client(EstimatorClientOptions{stack.server.endpoint(), ""});
    EXPECT_EQ(Remote(client, q), Direct(stack.estimator, q));
  }
  EXPECT_TRUE(Eventually(
      [&] { return stack.server.Stats().connections_active == 0; }));
  // No accept after the last.
  EXPECT_EQ(stack.server.Stats().connections_accepted, 4u);
}

// ---------------------------------------------------------------------------
// Multi-model serving (ModelRegistry + protocol-v2 model routing).

// Two differently configured FactorJoin models (16 vs 48 bins — different
// binnings, different bounds) behind one server. "a" additionally goes
// through a snapshot serialize/deserialize round trip before serving, so
// the remote values prove the loaded model is bit-identical.
struct MultiModelStack {
  Database db = MakeDb();
  ModelRegistry registry;
  FactorJoinEstimator trained_a;  // reference models, served via snapshots
  FactorJoinEstimator trained_b;
  net::EstimatorServer server;

  static FactorJoinConfig Config(uint32_t bins) {
    FactorJoinConfig c;
    c.num_bins = bins;
    return c;
  }

  MultiModelStack()
      : trained_a(db, Config(16)), trained_b(db, Config(48)),
        server(registry) {
    registry.AddModel("a", DeserializeEstimator(
                               db, SerializeEstimator(trained_a)),
                      {.num_threads = 2});
    registry.AddModel("b", DeserializeEstimator(
                               db, SerializeEstimator(trained_b)),
                      {.num_threads = 2});
    server.Start();
  }

  /// A client addressing `model` over its own connection.
  std::unique_ptr<EstimatorClient> Client(const std::string& model) {
    return std::make_unique<EstimatorClient>(
        EstimatorClientOptions{server.endpoint(), model});
  }
};

TEST(MultiModelTest, RequestsRouteToTheNamedModel) {
  MultiModelStack stack;
  Query q = ChainQuery(30, 250);
  double a = Remote(*stack.Client("a"), q);
  double b = Remote(*stack.Client("b"), q);
  EXPECT_EQ(a, Direct(stack.trained_a, q));
  EXPECT_EQ(b, Direct(stack.trained_b, q));
  // 16-bin and 48-bin models genuinely differ on this workload, so the
  // routing assertion cannot pass by accident.
  EXPECT_NE(a, b);
  // "" routes to the default (first-registered) model.
  EXPECT_EQ(Remote(*stack.Client(""), q), a);
}

TEST(MultiModelTest, SubplansPerModelBitIdentical) {
  MultiModelStack stack;
  Query q = ChainQuery(25, 300);
  std::vector<uint64_t> masks = EnumerateConnectedSubsets(q, 1);
  auto remote_a = stack.Client("a")->EstimateSubplans(q, masks);
  auto remote_b = stack.Client("b")->EstimateSubplans(q, masks);
  auto local_a = stack.trained_a.EstimateSubplans(q, masks);
  auto local_b = stack.trained_b.EstimateSubplans(q, masks);
  for (uint64_t mask : masks) {
    EXPECT_EQ(remote_a.at(mask), local_a.at(mask)) << "a mask " << mask;
    EXPECT_EQ(remote_b.at(mask), local_b.at(mask)) << "b mask " << mask;
  }
}

TEST(MultiModelTest, UnknownModelIsARequestErrorNotADrop) {
  MultiModelStack stack;
  Query q = ChainQuery(30, 250);
  std::unique_ptr<EstimatorClient> nope = stack.Client("nope");
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      Remote(*nope, q);
      FAIL() << "expected RemoteError";
    } catch (const RemoteError& e) {
      std::string message = e.what();
      EXPECT_NE(message.find("unknown model"), std::string::npos);
      EXPECT_NE(message.find("a, b"), std::string::npos);  // lists the models
    }
    // The connection survives the per-request error.
    EXPECT_TRUE(nope->IsConnected());
  }
  EXPECT_THROW(nope->Stats(), RemoteError);
  EXPECT_EQ(stack.server.Stats().connections_accepted, 1u);
  EXPECT_GE(stack.server.Stats().request_errors, 3u);
}

// Routing is per request, not per connection: on one raw connection an
// unknown model id fails only its own request, and the next requests reach
// the models they name.
TEST(MultiModelTest, OneConnectionRoutesEachRequest) {
  MultiModelStack stack;
  Query q = ChainQuery(30, 250);
  int fd = RawConnect(stack.server.endpoint());
  auto estimate = [&](uint64_t id, const std::string& model) {
    EXPECT_TRUE(net::WriteFrame(fd, MsgType::kSubplansReq, id,
                                net::EncodeSubplansReq(model, q, {0b111})));
    Frame resp = net::ReadFrame(fd).value();
    EXPECT_EQ(resp.request_id, id);
    return resp;
  };
  Frame unknown = estimate(1, "nope");
  EXPECT_EQ(unknown.type, MsgType::kError);
  EXPECT_NE(net::DecodeError(unknown.body).find("unknown model"),
            std::string::npos);
  Frame a = estimate(2, "a");
  ASSERT_EQ(a.type, MsgType::kSubplansResp);
  EXPECT_EQ(net::DecodeSubplansResp(a.body).at(0b111),
            Direct(stack.trained_a, q));
  Frame b = estimate(3, "b");
  ASSERT_EQ(b.type, MsgType::kSubplansResp);
  EXPECT_EQ(net::DecodeSubplansResp(b.body).at(0b111),
            Direct(stack.trained_b, q));
  net::CloseSocket(fd);
}

TEST(MultiModelTest, EpochsAndStatsArePerModel) {
  MultiModelStack stack;
  Query q = ChainQuery(30, 250);
  std::unique_ptr<EstimatorClient> a = stack.Client("a");
  std::unique_ptr<EstimatorClient> b = stack.Client("b");
  Remote(*a, q);
  Remote(*b, q);
  EXPECT_EQ(a->NotifyUpdate("orders"), 1u);
  ServiceStats stats_a = a->Stats();
  ServiceStats stats_b = b->Stats();
  EXPECT_EQ(stats_a.epoch, 1u);
  EXPECT_EQ(stats_b.epoch, 0u);  // "b" never saw the update
  EXPECT_EQ(stats_a.subplan_requests, 1u);
  EXPECT_EQ(stats_b.subplan_requests, 1u);
}

// ---------------------------------------------------------------------------
// Client completion callbacks: EstimateSubplansAsync(query, masks, done).

// Records each request's callback runs (count, value, error) and waits
// until every request has completed.
struct Completions {
  explicit Completions(size_t n) : calls(n), values(n), errors(n) {}

  EstimatorClient::SubplansCallback For(size_t i) {
    return [this, i](Estimates estimates, std::exception_ptr error) {
      std::lock_guard<std::mutex> lock(mu);
      ++calls[i];
      values[i] = std::move(estimates);
      errors[i] = std::move(error);
      ++total;
      all_done.notify_all();
    };
  }

  bool WaitAll() {
    std::unique_lock<std::mutex> lock(mu);
    return all_done.wait_for(lock, std::chrono::seconds(30),
                             [&] { return total >= calls.size(); });
  }

  std::mutex mu;
  std::condition_variable all_done;
  std::vector<int> calls;
  std::vector<Estimates> values;
  std::vector<std::exception_ptr> errors;
  size_t total = 0;
};

// Responses arrive with values bit-identical to in-process estimation; a
// server-side failure arrives as RemoteError.
TEST(ClientCallbackTest, DeliversValuesAndServerErrors) {
  RemoteStack stack;
  std::vector<Query> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(ChainQuery(20 + i, 150 + 20 * i));
  }
  Query disconnected;  // no join path: the estimator rejects it
  disconnected.AddTable("users", "u").AddTable("items", "i");
  queries.push_back(disconnected);
  Completions done(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    stack.client->EstimateSubplansAsync(
        queries[i], {queries[i].AllAliases()}, done.For(i));
  }
  ASSERT_TRUE(done.WaitAll());
  std::lock_guard<std::mutex> lock(done.mu);
  for (size_t i = 0; i + 1 < queries.size(); ++i) {
    EXPECT_EQ(done.calls[i], 1);
    EXPECT_EQ(done.errors[i], nullptr);
    EXPECT_EQ(
        std::bit_cast<uint64_t>(done.values[i].at(queries[i].AllAliases())),
        std::bit_cast<uint64_t>(Direct(stack.estimator, queries[i])));
  }
  EXPECT_EQ(done.calls.back(), 1);
  ASSERT_NE(done.errors.back(), nullptr);
  EXPECT_THROW(std::rethrow_exception(done.errors.back()), RemoteError);
}

// A failed dial is a completion like any other: the callback runs once,
// before EstimateSubplansAsync returns, and the future overload fails
// through get().
TEST(ClientCallbackTest, FailedDialCompletesOnTheCallingThread) {
  EstimatorClientOptions options;
  options.endpoint.unix_path =
      "/tmp/fj_net_test_nobody_" + std::to_string(::getpid()) + ".sock";
  EstimatorClient client(options);
  Query q = ChainQuery(30, 250);

  std::atomic<int> calls{0};
  std::thread::id ran_on;
  std::exception_ptr error;
  auto done = [&](Estimates, std::exception_ptr e) {
    calls.fetch_add(1);
    ran_on = std::this_thread::get_id();
    error = std::move(e);
  };
  EXPECT_NO_THROW(client.EstimateSubplansAsync(q, {q.AllAliases()}, done));
  ASSERT_EQ(calls.load(), 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_THROW(std::rethrow_exception(error), NetError);

  std::future<Estimates> future;
  EXPECT_NO_THROW(future = client.EstimateSubplansAsync(q, {q.AllAliases()}));
  EXPECT_THROW(future.get(), NetError);
}

// Requests outstanding when the server stops each complete exactly once,
// through a callback or a future: served before the stop (bit-identical
// value) or failed with NetError by the disconnect sweep.
TEST(RemoteTest, LostConnectionFailsOutstandingFutures) {
  RemoteStack stack;
  std::vector<Query> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(ChainQuery(20 + i % 30, 400 - i));
  }
  Completions done(queries.size());
  std::vector<std::future<Estimates>> futures;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<uint64_t> all = {queries[i].AllAliases()};
    stack.client->EstimateSubplansAsync(queries[i], all, done.For(i));
    futures.push_back(stack.client->EstimateSubplansAsync(queries[i], all));
  }
  stack.server.Stop();
  ASSERT_TRUE(done.WaitAll());
  stack.client->Disconnect();  // no receiver left to run a callback again

  std::lock_guard<std::mutex> lock(done.mu);
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t all = queries[i].AllAliases();
    uint64_t expect =
        std::bit_cast<uint64_t>(Direct(stack.estimator, queries[i]));
    EXPECT_EQ(done.calls[i], 1) << "request " << i;
    if (done.errors[i] == nullptr) {
      EXPECT_EQ(std::bit_cast<uint64_t>(done.values[i].at(all)), expect);
    } else {
      EXPECT_THROW(std::rethrow_exception(done.errors[i]), NetError);
    }
    try {
      EXPECT_EQ(std::bit_cast<uint64_t>(futures[i].get().at(all)), expect);
    } catch (const NetError&) {
      // failed by the disconnect sweep — also a single completion
    }
  }
}

// ---------------------------------------------------------------------------
// The send path: the thread that produces a frame writes it.

// Holds every Estimate until Release(); WaitEntered() tells whether one is
// being served within 5 s.
class LatchEstimator : public CardinalityEstimator {
 public:
  std::string Name() const override { return "latch"; }
  double Estimate(const Query& /*query*/) const override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return 1.0;
  }
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

// A response completing after its connection was closed and reaped is
// dropped: it never reaches a later connection, whichever descriptor that
// connection's socket got.
TEST(SendPathTest, LateCompletionNeverReachesALaterConnection) {
  LatchEstimator estimator;
  EstimatorService service(estimator,
                           {.num_threads = 1, .cache_enabled = false});
  EstimatorServer server(service);
  server.Start();
  Query q;
  q.AddTable("t");
  constexpr uint64_t kLateId = 4242;
  // No ASSERT until Release(): the server's Stop() waits for the held
  // estimate.
  int a = RawConnect(server.endpoint());
  EXPECT_TRUE(net::WriteFrame(a, MsgType::kSubplansReq, kLateId,
                              net::EncodeSubplansReq("", q, {1})));
  EXPECT_TRUE(estimator.WaitEntered());
  net::CloseSocket(a);
  // A's reader has exited, so B's accept reaps A.
  EXPECT_TRUE(
      Eventually([&] { return server.Stats().connections_active == 0; }));
  int b = RawConnect(server.endpoint());
  int c = RawConnect(server.endpoint());
  estimator.Release();
  service.Drain();  // A's completion has run
  for (int fd : {b, c}) {
    pollfd ready{fd, POLLIN, 0};
    if (::poll(&ready, 1, 500) > 0) {
      std::optional<Frame> frame = net::ReadFrame(fd);
      EXPECT_FALSE(frame.has_value() && frame->request_id == kLateId);
    }
    net::CloseSocket(fd);
  }
}

// Answers every mask of a batch with its popcount.
class PopcountEstimator : public CardinalityEstimator {
 public:
  std::string Name() const override { return "popcount"; }
  double Estimate(const Query& query) const override {
    return static_cast<double>(query.NumTables());
  }
  std::unique_ptr<SubplanSession> PrepareSubplans(
      const Query& /*query*/) const override {
    return std::make_unique<Session>();
  }

 private:
  class Session : public SubplanSession {
   public:
    std::unordered_map<uint64_t, double> EstimateSubplans(
        const std::vector<uint64_t>& masks) const override {
      std::unordered_map<uint64_t, double> out;
      for (uint64_t mask : masks) {
        out[mask] = static_cast<double>(std::popcount(mask));
      }
      return out;
    }
  };
};

// Stop() releases the workers blocked sending to a client that stopped
// reading: the socket shutdown fails their sends, and the responses still
// to come are dropped.
TEST(SendPathTest, StopIsNotStuckBehindABlockedSend) {
  PopcountEstimator estimator;
  EstimatorService service(estimator, {.num_threads = 2,
                                       .queue_capacity = 8,
                                       .cache_enabled = false});
  EstimatorServer server(service);
  server.Start();
  int fd = RawConnect(server.endpoint());
  Query q;
  q.AddTable("t");
  std::vector<uint64_t> masks(4096);
  std::iota(masks.begin(), masks.end(), uint64_t{1});
  const std::vector<uint8_t> body = net::EncodeSubplansReq("", q, masks);
  // Pipelines batches until the connection breaks, and never reads.
  std::thread sender([&] {
    for (uint64_t id = 1;
         net::WriteFrame(fd, MsgType::kSubplansReq, id, body); ++id) {
    }
  });
  // Once the socket buffers are full, the workers block in their sends and
  // responses_sent (the hello ack included) stops advancing.
  uint64_t last = 0;
  int unchanged = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (unchanged < 5 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    uint64_t sent = server.Stats().responses_sent;
    unchanged = sent > 1 && sent == last ? unchanged + 1 : 0;
    last = sent;
  }
  EXPECT_EQ(unchanged, 5) << "responses kept flowing to a client that "
                             "never reads";
  std::future<void> stopped =
      std::async(std::launch::async, [&] { server.Stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  net::ShutdownSocket(fd);
  sender.join();
  net::CloseSocket(fd);
}

}  // namespace
}  // namespace fj
