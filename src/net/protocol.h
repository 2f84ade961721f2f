// The versioned binary wire protocol between EstimatorClient and
// EstimatorServer.
//
// Framing: every message is one length-prefixed frame
//
//   u32 payload_length | u8 message_type | u64 request_id | body...
//
// with `payload_length` counting everything after itself. Frames longer
// than a configured maximum are rejected before allocation, so a malicious
// length prefix cannot OOM the peer.
//
// Handshake: the first frame on a connection must be kHello carrying the
// protocol magic and version; the server answers kHelloAck (echoing its
// version) or closes after a kError frame. Anything else — wrong magic,
// unsupported version, a request before the handshake — is a protocol
// error, and the connection is dropped without touching the service.
//
// Request/response: requests carry a client-chosen nonzero request_id;
// the response (or per-request kError) echoes it. Responses may arrive in
// any order — the server answers in completion order, clients correlate by
// id. request_id 0 is reserved for connection-level messages (handshake
// frames and fatal kError).
//
// Body encodings build on ByteWriter/ByteReader (util/bytes.h) and the
// query serializer (query/serialize.h); all multi-byte integers are
// little-endian and doubles are bit-exact, making remote estimates
// bit-identical to in-process ones.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/request_trace.h"
#include "query/query.h"
#include "query/serialize.h"
#include "service/service_stats.h"
#include "util/bytes.h"

namespace fj::net {

/// Malformed frame or message; alias of the serializer's error so one catch
/// handles both decoding layers.
using ProtocolError = SerializeError;

/// "FJN" + version byte of the *magic*, not the protocol (the protocol
/// version is negotiated separately in the hello body).
inline constexpr uint32_t kProtocolMagic = 0x464A4E31;  // "FJN1"
/// Version 6: one estimation request kind. The single-estimate pair
/// (types 3 and 4) is retired and rejected like any unknown type; a
/// one-query estimate is a sub-plans request for the query's full alias
/// mask.
/// Version 5: the stats body carries its counters as name/value pairs.
/// Version 4: the stats body gains the slow-log rate-limiter's suppressed
/// counter right after slow_requests. Negotiation is exact-match, so the
/// added field needs its own version — a v3 peer decoding a v4 body would
/// read the counter as the latency histogram's length.
/// Version 3 (observability): estimation requests carry a flags
/// byte after the model id (bit 0 = attach a per-request stage trace to
/// the response); their responses end with a has-trace byte plus the
/// optional trace; the stats body ships the slow-request counter and the
/// full latency + per-stage histograms instead of pre-computed quantiles
/// (the decoder derives them — peers are never trusted for math).
/// Version 2 added model-id routing and the batch-split counters.
/// Older handshakes are rejected cleanly (kError naming both versions),
/// never half-spoken.
inline constexpr uint16_t kProtocolVersion = 6;

/// Frames larger than this are rejected at the length prefix (both sides).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// 3 and 4 stay unused: they were the single-estimate pair until v5.
enum class MsgType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kSubplansReq = 5,       // body: str model, u8 flags, Query, u32 n, u64 × n
  kSubplansResp = 6,      // body: u32 n, (u64 mask, f64 estimate) × n,
                          //       u8 has_trace, [trace]
  kNotifyUpdateReq = 7,   // body: str model, str table
  kNotifyUpdateResp = 8,  // body: u64 epoch
  kStatsReq = 9,          // body: str model
  kStatsResp = 10,        // body: ServiceStats (see EncodeServiceStats)
  kError = 11,            // body: str message; request-scoped iff id != 0
};

/// One decoded frame: header plus still-encoded body bytes.
struct Frame {
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;
  std::vector<uint8_t> body;
};

/// Encodes a complete frame (length prefix included) ready for the socket.
std::vector<uint8_t> EncodeFrame(MsgType type, uint64_t request_id,
                                 const std::vector<uint8_t>& body);

/// Reads one frame from `fd`. Returns nullopt on orderly EOF / closed
/// socket; throws ProtocolError when the peer sends a length prefix past
/// kMaxFrameBytes, before allocating for it.
std::optional<Frame> ReadFrame(int fd);

/// Writes one frame to `fd`; false when the peer is gone.
bool WriteFrame(int fd, MsgType type, uint64_t request_id,
                const std::vector<uint8_t>& body);

// ---------------------------------------------------------------- handshake

struct Hello {
  uint32_t magic = kProtocolMagic;
  uint16_t version = kProtocolVersion;
};

std::vector<uint8_t> EncodeHello(const Hello& hello);
/// Throws ProtocolError on wrong magic (the peer is not speaking this
/// protocol at all); an unsupported-but-well-formed version is returned for
/// the caller to reject with a useful message.
Hello DecodeHello(const std::vector<uint8_t>& body);

// ------------------------------------------------------------- body codecs
//
// Every request body leads with the model-id string (the v2 routing field;
// "" selects the server's default model); a sub-plans request follows it
// with a v3 flags byte. Sub-plans responses end with `u8 has_trace` plus an
// optional obs::RequestTrace — present when the request set
// kReqFlagWantTrace and the server traced it. The server encodes the
// response payload first and appends the trace afterwards
// (AppendRespTrace), so the encode span it reports covers the actual
// response encoding, not its own bookkeeping.

/// Request flags byte (v3). Unknown bits are reserved and must be zero.
inline constexpr uint8_t kReqFlagWantTrace = 0x01;

std::vector<uint8_t> EncodeSubplansReq(const std::string& model,
                                       const Query& query,
                                       const std::vector<uint64_t>& masks,
                                       bool want_trace = false);
struct SubplansReq {
  std::string model;
  Query query;
  std::vector<uint64_t> masks;
  bool want_trace = false;
};
SubplansReq DecodeSubplansReq(const std::vector<uint8_t>& body);

/// Response payload WITHOUT the trailing trace section; the frame is
/// completed by AppendRespTrace (possibly with a null trace).
std::vector<uint8_t> EncodeSubplansRespBody(
    const std::unordered_map<uint64_t, double>& estimates);
/// Complete untraced response (payload + empty trace section).
std::vector<uint8_t> EncodeSubplansResp(
    const std::unordered_map<uint64_t, double>& estimates);
struct SubplansResp {
  std::unordered_map<uint64_t, double> estimates;
  bool has_trace = false;
  obs::RequestTrace trace;
};
/// A mask that appears twice makes the body malformed (ProtocolError): the
/// server answers each requested mask once.
SubplansResp DecodeSubplansRespFull(const std::vector<uint8_t>& body);
/// Estimates only; any attached trace is decoded (validated) and discarded.
std::unordered_map<uint64_t, double> DecodeSubplansResp(
    const std::vector<uint8_t>& body);

/// Seals an Encode*RespBody payload: appends `u8 has_trace` and, when
/// `trace` is non-null, its encoding (obs::EncodeRequestTrace).
void AppendRespTrace(std::vector<uint8_t>* body,
                     const obs::RequestTrace* trace);

std::vector<uint8_t> EncodeNotifyUpdateReq(const std::string& model,
                                           const std::string& table);
struct NotifyUpdateReq {
  std::string model;
  std::string table;
};
NotifyUpdateReq DecodeNotifyUpdateReq(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeStatsReq(const std::string& model);
std::string DecodeStatsReq(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeNotifyUpdateResp(uint64_t epoch);
uint64_t DecodeNotifyUpdateResp(const std::vector<uint8_t>& body);

/// Stats body (v5): `u32 n, (str name, u64 value) × n` — one pair per row
/// of kServiceCounters (service/service_stats.h), keyed by metric name —
/// then the end-to-end latency histogram and all obs::kNumStages per-stage
/// histograms (sparse encoding — see obs/latency_histogram.h). The decoder
/// skips names it does not know, so a new counter needs no version bump;
/// a name sent twice is malformed. Quantile fields are NOT on the wire; the
/// decoder recomputes them via ServiceStats::RefreshQuantiles.
std::vector<uint8_t> EncodeServiceStats(const ServiceStats& stats);
ServiceStats DecodeServiceStats(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeError(const std::string& message);
std::string DecodeError(const std::vector<uint8_t>& body);

}  // namespace fj::net
