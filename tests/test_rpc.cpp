// service/rpc: the meshbcast.rpc v1 codec -- strict layered parsing
// (encoding, JSON, schema), id echo on every error path, and the
// response/error frame renderers.  Plus the KeyedMutex single-flight
// primitive the plan store builds compile deduplication on.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "service/rpc.h"
#include "store/single_flight.h"

namespace wsn {
namespace {

RpcRequest parse_ok(const std::string& payload) {
  RpcRequest req;
  RpcError error;
  EXPECT_TRUE(parse_rpc_request(payload, req, error))
      << error.code << ": " << error.message;
  return req;
}

RpcError parse_fail(const std::string& payload, RpcRequest& req) {
  RpcError error;
  EXPECT_FALSE(parse_rpc_request(payload, req, error));
  return error;
}

TEST(RpcTest, ParsesEveryControlType) {
  EXPECT_EQ(parse_ok("{\"type\":\"health\"}").type, RpcType::kHealth);
  EXPECT_EQ(parse_ok("{\"type\":\"metrics\"}").type, RpcType::kMetrics);
  EXPECT_EQ(parse_ok("{\"type\":\"shutdown\"}").type, RpcType::kShutdown);
}

TEST(RpcTest, IdIsOptionalAndEchoable) {
  const RpcRequest bare = parse_ok("{\"type\":\"health\"}");
  EXPECT_FALSE(bare.has_id);
  const RpcRequest tagged = parse_ok("{\"type\":\"health\",\"id\":7}");
  EXPECT_TRUE(tagged.has_id);
  EXPECT_EQ(tagged.id, 7u);
}

TEST(RpcTest, PlanParsesAllFields) {
  const RpcRequest req = parse_ok(
      "{\"type\":\"plan\",\"id\":3,\"family\":\"2D-4\","
      "\"dims\":[32,16],\"spacing\":0.25,\"source\":100,"
      "\"protocol\":\"cds\",\"packet_bits\":1024}");
  EXPECT_EQ(req.type, RpcType::kPlan);
  EXPECT_EQ(req.plan.family, "2D-4");
  EXPECT_EQ(req.plan.m, 32);
  EXPECT_EQ(req.plan.n, 16);
  EXPECT_EQ(req.plan.l, 1);
  EXPECT_DOUBLE_EQ(req.plan.spacing, 0.25);
  EXPECT_EQ(req.plan.source, 100u);
  EXPECT_EQ(req.plan.protocol, "cds");
  EXPECT_EQ(req.plan.packet_bits, 1024u);
}

TEST(RpcTest, PlanAcceptsThreeDims) {
  const RpcRequest req = parse_ok(
      "{\"type\":\"plan\",\"family\":\"3D-6\",\"dims\":[8,8,8]}");
  EXPECT_EQ(req.plan.m, 8);
  EXPECT_EQ(req.plan.n, 8);
  EXPECT_EQ(req.plan.l, 8);
}

TEST(RpcTest, PlanDefaultsWithoutDims) {
  const RpcRequest req =
      parse_ok("{\"type\":\"plan\",\"family\":\"2D-4\"}");
  // Zero dims = "use the paper defaults"; the server resolves them.
  EXPECT_EQ(req.plan.m, 0);
  EXPECT_EQ(req.plan.n, 0);
  EXPECT_EQ(req.plan.protocol, "paper");
  EXPECT_EQ(req.plan.packet_bits, 512u);
}

TEST(RpcTest, PlanRejectsUnknownKeys) {
  RpcRequest req;
  const RpcError error = parse_fail(
      "{\"type\":\"plan\",\"family\":\"2D-4\",\"sorce\":3}", req);
  EXPECT_EQ(error.code, rpc_code::kBadRequest);
  // The message names the offending key so typos are diagnosable.
  EXPECT_NE(error.message.find("sorce"), std::string::npos);
}

TEST(RpcTest, PlanRejectsBadShapes) {
  RpcRequest req;
  // family is required.
  EXPECT_EQ(parse_fail("{\"type\":\"plan\"}", req).code,
            rpc_code::kBadRequest);
  // dims must be [m,n] or [m,n,l].
  EXPECT_EQ(parse_fail("{\"type\":\"plan\",\"family\":\"2D-4\","
                       "\"dims\":[32]}",
                       req)
                .code,
            rpc_code::kBadRequest);
  // dims entries must be positive integers.
  EXPECT_EQ(parse_fail("{\"type\":\"plan\",\"family\":\"2D-4\","
                       "\"dims\":[32,-1]}",
                       req)
                .code,
            rpc_code::kBadRequest);
  // protocol is a closed enum.
  EXPECT_EQ(parse_fail("{\"type\":\"plan\",\"family\":\"2D-4\","
                       "\"protocol\":\"magic\"}",
                       req)
                .code,
            rpc_code::kBadRequest);
  // packet_bits must be positive.
  EXPECT_EQ(parse_fail("{\"type\":\"plan\",\"family\":\"2D-4\","
                       "\"packet_bits\":0}",
                       req)
                .code,
            rpc_code::kBadRequest);
}

TEST(RpcTest, SimulateWrapsEntryIntoOneEntrySpec) {
  const RpcRequest req = parse_ok(
      "{\"type\":\"simulate\",\"id\":9,\"family\":\"2D-4\","
      "\"dims\":[8,8],\"sources\":[0],\"protocols\":[\"paper\"],"
      "\"audit\":true}");
  EXPECT_EQ(req.type, RpcType::kSimulate);
  EXPECT_TRUE(req.simulate.audit);
  const JsonValue& doc = req.simulate.spec_doc;
  // Envelope keys (type/id/audit) are stripped; the rest becomes the
  // single entry of a synthetic spec document.
  const JsonValue* scenarios = doc.find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  ASSERT_EQ(scenarios->as_array().size(), 1u);
  const JsonValue& entry = scenarios->as_array()[0];
  EXPECT_EQ(entry.string_or("family", ""), "2D-4");
  EXPECT_EQ(entry.find("type"), nullptr);
  EXPECT_EQ(entry.find("id"), nullptr);
  EXPECT_EQ(entry.find("audit"), nullptr);
  // A name is synthesized when absent so the spec parser is satisfied.
  EXPECT_FALSE(entry.string_or("name", "").empty());
}

TEST(RpcTest, ScenarioRequiresSpecObject) {
  const RpcRequest req = parse_ok(
      "{\"type\":\"scenario\",\"workers\":4,"
      "\"spec\":{\"name\":\"s\",\"scenarios\":[]}}");
  EXPECT_EQ(req.type, RpcType::kScenario);
  EXPECT_EQ(req.scenario.workers, 4u);
  EXPECT_EQ(req.scenario.spec_doc.string_or("name", ""), "s");

  RpcRequest bad;
  EXPECT_EQ(parse_fail("{\"type\":\"scenario\"}", bad).code,
            rpc_code::kBadRequest);
  EXPECT_EQ(
      parse_fail("{\"type\":\"scenario\",\"spec\":[1,2]}", bad).code,
      rpc_code::kBadRequest);
}

TEST(RpcTest, InvalidUtf8IsBadEncoding) {
  RpcRequest req;
  std::string payload = "{\"type\":\"health\",\"x\":\"";
  payload.push_back(static_cast<char>(0xff));
  payload.push_back(static_cast<char>(0xfe));
  payload += "\"}";
  EXPECT_EQ(parse_fail(payload, req).code, rpc_code::kBadEncoding);
}

TEST(RpcTest, UnparseableJsonIsBadJson) {
  RpcRequest req;
  EXPECT_EQ(parse_fail("{\"type\":", req).code, rpc_code::kBadJson);
  EXPECT_EQ(parse_fail("not json at all", req).code, rpc_code::kBadJson);
}

TEST(RpcTest, NonObjectAndUnknownTypeAreBadRequest) {
  RpcRequest req;
  EXPECT_EQ(parse_fail("[1,2,3]", req).code, rpc_code::kBadRequest);
  EXPECT_EQ(parse_fail("{\"no_type\":true}", req).code,
            rpc_code::kBadRequest);
  EXPECT_EQ(parse_fail("{\"type\":\"teleport\"}", req).code,
            rpc_code::kBadRequest);
}

TEST(RpcTest, IdSurvivesSchemaErrors) {
  // The id is extracted before type dispatch, so even a rejected
  // request's error frame can be correlated by the client.
  RpcRequest req;
  const RpcError error =
      parse_fail("{\"type\":\"teleport\",\"id\":41}", req);
  EXPECT_EQ(error.code, rpc_code::kBadRequest);
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 41u);
}

TEST(RpcTest, ErrorFrameRendersAndRoundTrips) {
  const std::string frame =
      rpc_error_json(true, 12, rpc_code::kOverloaded, "queue full");
  JsonValue doc;
  ASSERT_TRUE(parse_json(frame, doc));
  EXPECT_EQ(doc.string_or("type", ""), "error");
  EXPECT_EQ(doc.number_or("id", -1), 12.0);
  const JsonValue* error = doc.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->string_or("code", ""), "overloaded");
  EXPECT_EQ(error->string_or("message", ""), "queue full");
}

TEST(RpcTest, ErrorFrameOmitsIdWhenAbsent) {
  const std::string frame =
      rpc_error_json(false, 0, rpc_code::kBadJson, "nope");
  JsonValue doc;
  ASSERT_TRUE(parse_json(frame, doc));
  EXPECT_EQ(doc.find("id"), nullptr);
}

TEST(RpcTest, ErrorFrameCarriesServerRequestId) {
  const std::string frame =
      rpc_error_json(true, 12, rpc_code::kOverloaded, "queue full", 77);
  JsonValue doc;
  ASSERT_TRUE(parse_json(frame, doc));
  EXPECT_EQ(doc.number_or("id", -1), 12.0);
  EXPECT_EQ(doc.number_or("req", -1), 77.0);

  // The request-taking overload forwards has_id/id/seq as a unit.
  RpcRequest req = parse_ok("{\"type\":\"health\",\"id\":4}");
  req.seq = 31;
  JsonValue doc2;
  ASSERT_TRUE(parse_json(
      rpc_error_json(req, rpc_code::kInternal, "boom"), doc2));
  EXPECT_EQ(doc2.number_or("id", -1), 4.0);
  EXPECT_EQ(doc2.number_or("req", -1), 31.0);

  // seq 0 means "no server id assigned" and must stay absent.
  JsonValue doc3;
  ASSERT_TRUE(parse_json(
      rpc_error_json(false, 0, rpc_code::kBadJson, "nope", 0), doc3));
  EXPECT_EQ(doc3.find("req"), nullptr);
}

TEST(RpcTest, ResponseBeginEchoesServerRequestId) {
  RpcRequest req = parse_ok("{\"type\":\"health\",\"id\":5}");
  req.seq = 99;
  JsonWriter w = rpc_response_begin(req);
  const std::string frame =
      std::move(w.member("x", true).end_object()).str();
  JsonValue doc;
  ASSERT_TRUE(parse_json(frame, doc));
  EXPECT_EQ(doc.number_or("id", -1), 5.0);
  EXPECT_EQ(doc.number_or("req", -1), 99.0);

  // Default seq 0: the member is omitted entirely.
  RpcRequest bare = parse_ok("{\"type\":\"health\"}");
  JsonWriter w2 = rpc_response_begin(bare);
  JsonValue doc2;
  ASSERT_TRUE(parse_json(std::move(w2.end_object()).str(), doc2));
  EXPECT_EQ(doc2.find("req"), nullptr);
}

TEST(RpcTest, ResponseBeginEchoesIdAndOk) {
  RpcRequest req = parse_ok("{\"type\":\"health\",\"id\":5}");
  JsonWriter w = rpc_response_begin(req);
  const std::string frame = std::move(w.member("extra", true).end_object())
                                .str();
  JsonValue doc;
  ASSERT_TRUE(parse_json(frame, doc));
  EXPECT_EQ(doc.string_or("type", ""), "response");
  EXPECT_EQ(doc.number_or("id", -1), 5.0);
  EXPECT_EQ(doc.bool_or("ok", false), true);
  EXPECT_EQ(doc.bool_or("extra", false), true);
}

TEST(RpcTest, RpcTypeNames) {
  EXPECT_EQ(to_string(RpcType::kHealth), "health");
  EXPECT_EQ(to_string(RpcType::kMetrics), "metrics");
  EXPECT_EQ(to_string(RpcType::kPlan), "plan");
  EXPECT_EQ(to_string(RpcType::kSimulate), "simulate");
  EXPECT_EQ(to_string(RpcType::kScenario), "scenario");
  EXPECT_EQ(to_string(RpcType::kShutdown), "shutdown");
}

TEST(RpcTest, KeyedMutexSerializesOnlySameKey) {
  KeyedMutex flights;
  std::atomic<int> in_a{0};
  std::atomic<int> max_in_a{0};
  std::atomic<bool> b_entered{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      const KeyedMutex::Guard guard = flights.lock(PlanKey{0, 1});
      const int now = in_a.fetch_add(1) + 1;
      int prev = max_in_a.load();
      while (now > prev && !max_in_a.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      in_a.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    // A different key must not queue behind the first.
    const KeyedMutex::Guard guard = flights.lock(PlanKey{0, 2});
    b_entered.store(true);
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(max_in_a.load(), 1);  // mutual exclusion per key
  EXPECT_TRUE(b_entered.load());
}

TEST(RpcTest, KeyedMutexGuardMoves) {
  KeyedMutex flights;
  KeyedMutex::Guard outer = [&] {
    KeyedMutex::Guard inner = flights.lock(PlanKey{3, 4});
    return inner;
  }();
  // Still held after the move; releasing via destructor must not crash
  // and must leave the key lockable again.
  {
    KeyedMutex::Guard dropped = std::move(outer);
  }
  const KeyedMutex::Guard again = flights.lock(PlanKey{3, 4});
}

}  // namespace
}  // namespace wsn
