#include "net/protocol.hpp"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/rng.hpp"
#include "sim/serialization.hpp"

namespace fare::net {

namespace {

/// Untrusted-peer parse limits: our own messages nest 5 levels (message ->
/// result -> spec -> faults -> wear), so 16 is ample; the byte cap matches
/// the frame layer's.
constexpr JsonLimits kWireLimits{/*max_depth=*/16,
                                 /*max_bytes=*/kMaxFrameBytes};

struct TypeName {
    WireMessage::Type type;
    const char* name;
};

constexpr TypeName kTypeNames[] = {
    {WireMessage::Type::kHello, "hello"},
    {WireMessage::Type::kWelcome, "welcome"},
    {WireMessage::Type::kAuth, "auth"},
    {WireMessage::Type::kAssign, "assign"},
    {WireMessage::Type::kResult, "result"},
    {WireMessage::Type::kCellError, "cell_error"},
    {WireMessage::Type::kHeartbeat, "heartbeat"},
    {WireMessage::Type::kSubmit, "submit"},
    {WireMessage::Type::kCell, "cell"},
    {WireMessage::Type::kDone, "done"},
};

Expected<WireMessage::Type> parse_type(const std::string& name) {
    for (const TypeName& t : kTypeNames)
        if (name == t.name) return t.type;
    return Expected<WireMessage::Type>::failure("unknown message type '" +
                                                name + "'");
}

/// Required string/number member accessors that fail as Expected-compatible
/// runtime errors (decode_message catches).
const JsonValue& required(const JsonValue& v, const char* key) {
    const JsonValue* m = v.find(key);
    if (!m)
        throw std::runtime_error(std::string("message missing field '") + key +
                                 "'");
    return *m;
}

}  // namespace

const char* wire_type_name(WireMessage::Type type) {
    for (const TypeName& t : kTypeNames)
        if (type == t.type) return t.name;
    return "?";
}

std::string encode_message(const WireMessage& m) {
    std::ostringstream os;
    os << "{\"type\":\"" << wire_type_name(m.type) << '"';
    switch (m.type) {
        case WireMessage::Type::kHello:
            os << ",\"role\":\"" << json_escape(m.role)
               << "\",\"protocol\":" << m.protocol;
            break;
        case WireMessage::Type::kWelcome:
            os << ",\"protocol\":" << m.protocol;
            // Extra members are ignored by decoders that don't know them, so
            // a challenge-bearing welcome stays wire-compatible with
            // secretless peers of the same protocol version.
            if (!m.challenge.empty())
                os << ",\"challenge\":\"" << json_escape(m.challenge) << '"';
            break;
        case WireMessage::Type::kAuth:
            os << ",\"proof\":\"" << json_escape(m.proof) << '"';
            break;
        case WireMessage::Type::kAssign:
            os << ",\"job\":" << m.job
               << ",\"spec\":" << cell_spec_to_json(m.spec);
            break;
        case WireMessage::Type::kResult:
            os << ",\"job\":" << m.job
               << ",\"result\":" << cell_result_to_json(m.result);
            break;
        case WireMessage::Type::kCellError:
            os << ",\"job\":" << m.job << ",\"error\":\""
               << json_escape(m.error) << '"';
            break;
        case WireMessage::Type::kHeartbeat:
            break;
        case WireMessage::Type::kSubmit:
            os << ",\"plan\":\"" << json_escape(m.plan) << "\",\"epochs\":"
               << (m.epochs ? std::to_string(*m.epochs) : "null");
            break;
        case WireMessage::Type::kCell:
            os << ",\"plan\":\"" << json_escape(m.plan)
               << "\",\"index\":" << m.index
               << ",\"result\":" << cell_result_to_json(m.result);
            break;
        case WireMessage::Type::kDone:
            os << ",\"cells\":" << m.cells << ",\"error\":\""
               << json_escape(m.error) << '"';
            break;
    }
    os << '}';
    return os.str();
}

Expected<WireMessage> decode_message(const std::string& payload) {
    const Expected<JsonValue> doc = parse_json(payload, kWireLimits);
    if (!doc) return Expected<WireMessage>::failure(doc.error());
    const JsonValue& v = doc.value();
    try {
        WireMessage m;
        const Expected<WireMessage::Type> type =
            parse_type(required(v, "type").as_string());
        if (!type) return Expected<WireMessage>::failure(type.error());
        m.type = type.value();
        switch (m.type) {
            case WireMessage::Type::kHello:
                m.role = required(v, "role").as_string();
                m.protocol = json_integer<int>(required(v, "protocol"), "protocol");
                if (m.role != kRoleWorker && m.role != kRoleSubmitter)
                    return Expected<WireMessage>::failure("unknown role '" +
                                                          m.role + "'");
                break;
            case WireMessage::Type::kWelcome:
                m.protocol = json_integer<int>(required(v, "protocol"), "protocol");
                if (const JsonValue* challenge = v.find("challenge"))
                    m.challenge = challenge->as_string();
                break;
            case WireMessage::Type::kAuth:
                m.proof = required(v, "proof").as_string();
                break;
            case WireMessage::Type::kAssign: {
                m.job = required(v, "job").as_u64();
                Expected<CellSpec> spec =
                    cell_spec_from_json(required(v, "spec"));
                if (!spec)
                    return Expected<WireMessage>::failure("bad assign spec: " +
                                                          spec.error());
                m.spec = std::move(spec).value();
                break;
            }
            case WireMessage::Type::kResult: {
                m.job = required(v, "job").as_u64();
                Expected<CellResult> result =
                    cell_result_from_json(required(v, "result"));
                if (!result)
                    return Expected<WireMessage>::failure("bad result: " +
                                                          result.error());
                m.result = std::move(result).value();
                break;
            }
            case WireMessage::Type::kCellError:
                m.job = required(v, "job").as_u64();
                m.error = required(v, "error").as_string();
                break;
            case WireMessage::Type::kHeartbeat:
                break;
            case WireMessage::Type::kSubmit: {
                m.plan = required(v, "plan").as_string();
                const JsonValue& epochs = required(v, "epochs");
                if (epochs.kind != JsonValue::Kind::kNull)
                    m.epochs = epochs.as_u64();
                break;
            }
            case WireMessage::Type::kCell: {
                m.plan = required(v, "plan").as_string();
                m.index = required(v, "index").as_u64();
                Expected<CellResult> result =
                    cell_result_from_json(required(v, "result"));
                if (!result)
                    return Expected<WireMessage>::failure("bad cell result: " +
                                                          result.error());
                m.result = std::move(result).value();
                break;
            }
            case WireMessage::Type::kDone:
                m.cells = required(v, "cells").as_u64();
                m.error = required(v, "error").as_string();
                break;
        }
        return m;
    } catch (const std::exception& e) {
        return Expected<WireMessage>::failure(e.what());
    }
}

WireMessage make_hello(const std::string& role) {
    WireMessage m;
    m.type = WireMessage::Type::kHello;
    m.role = role;
    return m;
}

WireMessage make_welcome(const std::string& challenge) {
    WireMessage m;
    m.type = WireMessage::Type::kWelcome;
    m.challenge = challenge;
    return m;
}

WireMessage make_auth(const std::string& proof) {
    WireMessage m;
    m.type = WireMessage::Type::kAuth;
    m.proof = proof;
    return m;
}

std::string auth_proof(const std::string& secret, const std::string& challenge,
                       const std::string& role) {
    // FNV-1a over "secret:challenge:role:", then SplitMix64 — deterministic
    // across platforms, never leaks the secret itself. See the header: a
    // handshake gate, not cryptography.
    const std::uint64_t h =
        splitmix64(fnv1a(secret + ':' + challenge + ':' + role + ':'));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

Expected<bool> client_handshake(Socket& socket, const std::string& role,
                                const std::string& secret, int timeout_ms) {
    if (!send_message(socket, make_hello(role)).ok())
        return Expected<bool>::failure("hello send failed");
    Expected<std::optional<WireMessage>> welcome =
        recv_message(socket, timeout_ms);
    if (!welcome.ok())
        return Expected<bool>::failure("handshake failed: " + welcome.error());
    if (!welcome.value().has_value())
        return Expected<bool>::failure(
            "coordinator closed the connection during the handshake");
    const WireMessage& w = *welcome.value();
    if (w.type != WireMessage::Type::kWelcome)
        return Expected<bool>::failure(std::string("expected welcome, got ") +
                                       wire_type_name(w.type));
    if (w.protocol != kProtocolVersion)
        return Expected<bool>::failure(
            "protocol mismatch: coordinator speaks " +
            std::to_string(w.protocol) + ", this build speaks " +
            std::to_string(kProtocolVersion));
    if (!w.challenge.empty()) {
        if (secret.empty())
            return Expected<bool>::failure(
                "coordinator requires a shared secret (--secret or "
                "FARE_FABRIC_SECRET)");
        if (!send_message(socket,
                          make_auth(auth_proof(secret, w.challenge, role)))
                 .ok())
            return Expected<bool>::failure("auth send failed");
    }
    return true;
}

WireMessage make_assign(std::uint64_t job, const CellSpec& spec) {
    WireMessage m;
    m.type = WireMessage::Type::kAssign;
    m.job = job;
    m.spec = spec;
    return m;
}

WireMessage make_result(std::uint64_t job, const CellResult& result) {
    WireMessage m;
    m.type = WireMessage::Type::kResult;
    m.job = job;
    m.result = result;
    return m;
}

WireMessage make_cell_error(std::uint64_t job, const std::string& error) {
    WireMessage m;
    m.type = WireMessage::Type::kCellError;
    m.job = job;
    m.error = error;
    return m;
}

WireMessage make_heartbeat() { return WireMessage{}; }

WireMessage make_submit(const std::string& plan,
                        std::optional<std::uint64_t> epochs) {
    WireMessage m;
    m.type = WireMessage::Type::kSubmit;
    m.plan = plan;
    m.epochs = epochs;
    return m;
}

WireMessage make_cell(const std::string& plan, std::uint64_t index,
                      const CellResult& result) {
    WireMessage m;
    m.type = WireMessage::Type::kCell;
    m.plan = plan;
    m.index = index;
    m.result = result;
    return m;
}

WireMessage make_done(std::uint64_t cells, const std::string& error) {
    WireMessage m;
    m.type = WireMessage::Type::kDone;
    m.cells = cells;
    m.error = error;
    return m;
}

Expected<bool> send_message(Socket& socket, const WireMessage& message) {
    return write_frame(socket, encode_message(message));
}

Expected<std::optional<WireMessage>> recv_message(Socket& socket,
                                                  int stall_timeout_ms) {
    FrameRead frame = read_frame(socket, stall_timeout_ms);
    if (!frame)
        return Expected<std::optional<WireMessage>>::failure(frame.error());
    if (!frame.value().has_value()) return std::optional<WireMessage>{};
    Expected<WireMessage> message = decode_message(*frame.value());
    if (!message)
        return Expected<std::optional<WireMessage>>::failure(message.error());
    return std::optional<WireMessage>{std::move(message).value()};
}

}  // namespace fare::net
