// Wire-format tests for the sweep fabric: frame round-trips over real
// sockets, rejection of truncated / oversized / garbage frames as Expected
// errors (never a crash), the nine-message protocol vocabulary, and the
// endpoint parser the CLIs share.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "sim/registry.hpp"
#include "sim/serialization.hpp"

namespace fare::net {
namespace {

/// A connected localhost socket pair: `first` is the client side, `second`
/// the accepted server side.
struct SocketPair {
    Socket client;
    Socket server;
};

SocketPair make_pair_or_die() {
    Expected<Listener> bound = Listener::bind("127.0.0.1", 0);
    EXPECT_TRUE(bound.ok()) << bound.error();
    Listener listener = std::move(bound).value();
    Expected<Socket> client =
        tcp_connect("127.0.0.1", listener.bound_port(), 2000);
    EXPECT_TRUE(client.ok()) << client.error();
    Expected<Socket> server = listener.accept(2000);
    EXPECT_TRUE(server.ok()) << server.error();
    return {std::move(client).value(), std::move(server).value()};
}

TEST(FrameTest, RoundTripsOverASocket) {
    SocketPair pair = make_pair_or_die();
    const std::string payload = "{\"type\":\"heartbeat\"}";
    Expected<bool> sent = write_frame(pair.client, payload);
    ASSERT_TRUE(sent.ok()) << sent.error();

    FrameRead got = read_frame(pair.server, 2000);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), payload);

    // Several frames back to back stay delimited.
    ASSERT_TRUE(write_frame(pair.client, "a").ok());
    ASSERT_TRUE(write_frame(pair.client, std::string(100000, 'x')).ok());
    got = read_frame(pair.server, 2000);
    ASSERT_TRUE(got.ok() && got.value().has_value());
    EXPECT_EQ(*got.value(), "a");
    got = read_frame(pair.server, 2000);
    ASSERT_TRUE(got.ok() && got.value().has_value());
    EXPECT_EQ(got.value()->size(), 100000u);
}

TEST(FrameTest, EncodeLayoutIsMagicThenBigEndianLength) {
    const std::string wire = encode_frame("abc");
    ASSERT_EQ(wire.size(), 8u + 3u);
    EXPECT_EQ(wire.substr(0, 4), "FRJ1");
    EXPECT_EQ(static_cast<unsigned char>(wire[4]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(wire[5]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(wire[6]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(wire[7]), 3u);
    EXPECT_EQ(wire.substr(8), "abc");
}

TEST(FrameTest, CleanEofBetweenFramesIsNotAnError) {
    SocketPair pair = make_pair_or_die();
    pair.client.shutdown_both();
    FrameRead got = read_frame(pair.server, 2000);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_FALSE(got.value().has_value());  // nullopt = orderly end of stream
}

TEST(FrameTest, IdleTimeoutIsDistinguishable) {
    SocketPair pair = make_pair_or_die();
    FrameRead got = read_frame(pair.server, 50);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(is_idle_timeout(got.error())) << got.error();
    EXPECT_FALSE(is_idle_timeout("connection closed mid-frame"));
}

TEST(FrameTest, TruncatedFrameIsAnError) {
    SocketPair pair = make_pair_or_die();
    const std::string wire = encode_frame("hello worker");
    const std::string torn = wire.substr(0, wire.size() - 5);
    ASSERT_TRUE(pair.client.send_all(torn.data(), torn.size()).ok());
    pair.client.shutdown_both();  // peer dies mid-frame

    FrameRead got = read_frame(pair.server, 2000);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().find("mid-frame"), std::string::npos) << got.error();
}

TEST(FrameTest, OversizedLengthIsRefusedBeforeAllocation) {
    SocketPair pair = make_pair_or_die();
    // A hostile header announcing a 4 GiB - 1 payload. read_frame must
    // refuse from the 8 header bytes alone — no buffer is ever reserved.
    std::string header = "FRJ1";
    header += '\xff';
    header += '\xff';
    header += '\xff';
    header += '\xff';
    ASSERT_TRUE(pair.client.send_all(header.data(), header.size()).ok());
    FrameRead got = read_frame(pair.server, 2000);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().find("frame"), std::string::npos) << got.error();

    // Caller-tightened caps reject anything above them the same way.
    SocketPair strict = make_pair_or_die();
    ASSERT_TRUE(write_frame(strict.client, std::string(2048, 'x')).ok());
    FrameRead small = read_frame(strict.server, 2000, /*max_bytes=*/1024);
    ASSERT_FALSE(small.ok());
}

TEST(FrameTest, GarbageMagicIsAnError) {
    SocketPair pair = make_pair_or_die();
    const std::string probe = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_TRUE(pair.client.send_all(probe.data(), probe.size()).ok());
    FrameRead got = read_frame(pair.server, 2000);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().find("magic"), std::string::npos) << got.error();
}

TEST(FrameTest, FuzzedBytesNeverCrashTheDecoder) {
    // Deterministic xorshift stream: random-looking junk without the
    // banned global entropy sources.
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 64; ++round) {
        SocketPair pair = make_pair_or_die();
        std::string junk(static_cast<std::size_t>(next() % 512 + 1), '\0');
        for (char& c : junk) c = static_cast<char>(next() & 0xff);
        // Half the rounds hide the junk behind a valid header so the
        // payload path (JSON decode) gets fuzzed too.
        const std::string wire =
            (round % 2) ? encode_frame(junk) : junk;
        ASSERT_TRUE(pair.client.send_all(wire.data(), wire.size()).ok());
        pair.client.shutdown_both();
        FrameRead frame = read_frame(pair.server, 2000);
        if (!frame.ok() || !frame.value().has_value()) continue;
        Expected<WireMessage> message = decode_message(*frame.value());
        EXPECT_FALSE(message.ok());  // junk never parses into a message
    }
}

TEST(ProtocolTest, EveryMessageTypeRoundTrips) {
    CellSpec spec;
    spec.workload = find_workload("PPI", GnnKind::kGCN);
    spec.scheme = Scheme::kFARe;
    spec.faults = FaultScenario::pre_deployment(0.03, 0.5);
    spec.seed = 0xDEADBEEFCAFEF00Dull;
    spec.epochs = 3;
    CellResult result;
    result.spec = spec;
    result.run.train.test_accuracy = 0.875;
    result.plan_index = 17;

    const WireMessage messages[] = {
        make_hello(kRoleWorker),
        make_hello(kRoleSubmitter),
        make_welcome(),
        make_assign(42, spec),
        make_result(42, result),
        make_cell_error(42, "cell raised: bad density"),
        make_heartbeat(),
        make_submit("fig5_accuracy", 3),
        make_submit("fig6_postdeploy", std::nullopt),
        make_cell("fig5_accuracy", 17, result),
        make_done(90, ""),
        make_done(0, "unknown plan"),
    };
    for (const WireMessage& original : messages) {
        const std::string payload = encode_message(original);
        EXPECT_EQ(payload.find('\n'), std::string::npos);
        Expected<WireMessage> back = decode_message(payload);
        ASSERT_TRUE(back.ok())
            << wire_type_name(original.type) << ": " << back.error();
        const WireMessage& m = back.value();
        EXPECT_EQ(m.type, original.type);
        // Re-encoding is byte-identical — the strongest fidelity statement.
        EXPECT_EQ(encode_message(m), payload) << wire_type_name(original.type);
    }

    // Field fidelity on the two spec/result-carrying types.
    const WireMessage assign =
        decode_message(encode_message(make_assign(42, spec))).value();
    EXPECT_EQ(assign.job, 42u);
    EXPECT_EQ(assign.spec.key(), spec.key());
    EXPECT_EQ(assign.spec.seed, spec.seed);
    const WireMessage cell =
        decode_message(encode_message(make_cell("p", 17, result))).value();
    EXPECT_EQ(cell.plan, "p");
    EXPECT_EQ(cell.index, 17u);
    EXPECT_DOUBLE_EQ(cell.result.run.train.test_accuracy, 0.875);
}

TEST(ProtocolTest, MalformedMessagesAreErrorsNotAborts) {
    EXPECT_FALSE(decode_message("").ok());
    EXPECT_FALSE(decode_message("not json").ok());
    EXPECT_FALSE(decode_message("[1,2,3]").ok());
    EXPECT_FALSE(decode_message("{\"type\":\"warp_drive\"}").ok());
    EXPECT_FALSE(decode_message("{\"job\":1}").ok());  // no type at all
    // Required fields per type.
    EXPECT_FALSE(decode_message("{\"type\":\"assign\",\"job\":1}").ok());
    EXPECT_FALSE(decode_message("{\"type\":\"result\",\"job\":1}").ok());
    EXPECT_FALSE(decode_message("{\"type\":\"submit\"}").ok());
    EXPECT_FALSE(decode_message("{\"type\":\"hello\"}").ok());
    // Roles are a whitelist — an unknown peer class is refused at decode.
    EXPECT_FALSE(
        decode_message("{\"type\":\"hello\",\"role\":\"admin\",\"protocol\":1}")
            .ok());
    EXPECT_TRUE(
        decode_message("{\"type\":\"hello\",\"role\":\"worker\",\"protocol\":1}")
            .ok());
    // A protocol wider than an int is refused, not narrowed: 4294967297
    // would read as 1 and pass the version check.
    for (const char* frame :
         {"{\"type\":\"hello\",\"role\":\"worker\",\"protocol\":4294967297}",
          "{\"type\":\"welcome\",\"protocol\":4294967297}",
          "{\"type\":\"welcome\",\"protocol\":2147483648}"}) {
        const Expected<WireMessage> message = decode_message(frame);
        ASSERT_FALSE(message.ok()) << frame;
        EXPECT_NE(message.error().find("'protocol'"), std::string::npos)
            << message.error();
    }
}

TEST(ProtocolTest, PathologicalNestingIsBoundedOnTheNetworkPath) {
    // 4000 nested arrays: fine for the default (offline) parser limits but
    // far past the shallow bound the network path enforces. The document is
    // syntactically valid — only the tightened JsonLimits reject it.
    std::string deep = "{\"type\":\"heartbeat\",\"x\":";
    for (int i = 0; i < 64; ++i) deep += '[';
    deep += '1';
    for (int i = 0; i < 64; ++i) deep += ']';
    deep += '}';
    EXPECT_FALSE(decode_message(deep).ok());
    // The same depth through the offline parser is accepted — proof the
    // rejection came from the wire limits, not the grammar.
    EXPECT_TRUE(parse_json(deep).ok());
}

TEST(ProtocolTest, AuthProofIsPinned) {
    // Workers and coordinators of different builds must keep agreeing on the
    // handshake proof: the hash is part of the wire contract.
    EXPECT_EQ(auth_proof("s3cret", "abc123", "worker"), "703782d6f773d410");
    EXPECT_NE(auth_proof("s3cret", "abc123", "coordinator"),
              auth_proof("s3cret", "abc123", "worker"));
}

TEST(EndpointTest, ParsesHostPortPairs) {
    Expected<Endpoint> e = parse_endpoint("127.0.0.1:7070");
    ASSERT_TRUE(e.ok()) << e.error();
    EXPECT_EQ(e.value().host, "127.0.0.1");
    EXPECT_EQ(e.value().port, 7070);
    EXPECT_TRUE(parse_endpoint("node-3.rack2:80").ok());
    EXPECT_EQ(parse_endpoint("0.0.0.0:0").value().port, 0);  // ephemeral
    EXPECT_EQ(parse_endpoint("h:65535").value().port, 65535);

    EXPECT_FALSE(parse_endpoint("").ok());
    EXPECT_FALSE(parse_endpoint("no-port").ok());
    EXPECT_FALSE(parse_endpoint(":7070").ok());
    EXPECT_FALSE(parse_endpoint("h:").ok());
    EXPECT_FALSE(parse_endpoint("h:sim").ok());
    EXPECT_FALSE(parse_endpoint("h:65536").ok());
    EXPECT_FALSE(parse_endpoint("h:-1").ok());
}

}  // namespace
}  // namespace fare::net
