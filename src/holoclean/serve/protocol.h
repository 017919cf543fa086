#ifndef HOLOCLEAN_SERVE_PROTOCOL_H_
#define HOLOCLEAN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "holoclean/core/config.h"
#include "holoclean/util/json.h"
#include "holoclean/util/status.h"

namespace holoclean {
namespace serve {

/// The wire protocol of holoclean_serve — the repo's first stable external
/// API surface. One TCP connection carries a sequence of frames, each a
/// 4-byte big-endian length prefix followed by that many bytes of JSON.
/// Requests and responses alternate strictly (no pipelining).
///
/// Request object:
///   {"op": "clean", "tenant": "acme", "dataset": "food",
///    "config": {"tau": 0.5, ...},            // optional overrides
///    "csv": "...", "constraints": "...",     // register_dataset only
///    "cell": {"tid": 3, "attr": "City", "value": "Chicago"},  // feedback
///    "rows": [["v1", "v2", ...], ...],       // append_rows only
///    "deadline_ms": 2000,   // optional: give up after this long (queue
///                           // wait included); server clamps to its cap
///    "attempt": 1}          // optional: client retry ordinal, 0-based
///
/// Response object:
///   {"ok": true, "protocol": 2, ...op-specific payload...}
///   {"ok": false, "protocol": 2, "error": "overloaded",
///    "message": "tenant acme has 4 cleans in flight"}
///
/// Stability contract: fields are only ever added, never renamed or
/// removed; unknown fields are ignored on read. kProtocolVersion bumps
/// only when that contract has to break. Version 2 added the append_rows
/// op (streaming ingestion) and the request's "rows" field; both are
/// additive — a version-1 frame parses and re-serializes byte-identically.
inline constexpr int kProtocolVersion = 2;

/// Frames larger than this are refused before allocation — a hostile or
/// corrupt length prefix must not OOM the daemon. Registration payloads
/// carry whole CSV files, so the bound is generous.
inline constexpr uint32_t kMaxFrameBytes = 256u * 1024u * 1024u;

/// Operations a client can request.
enum class Op {
  kRegisterDataset,
  kDropDataset,
  kListDatasets,
  kClean,
  kFeedback,
  kExplainStatus,
  /// Streaming ingestion (protocol 2): appends the request's "rows" to the
  /// tenant's working copy and incrementally re-cleans it.
  kAppendRows,
};

const char* OpName(Op op);
Result<Op> ParseOp(const std::string& name);

/// Machine-readable error codes carried in failed responses ("error").
/// The human-oriented detail travels separately in "message".
///   invalid_argument | not_found | already_exists | overloaded |
///   draining | deadline_exceeded | timeout | internal
std::string ErrorCodeFor(const Status& status);

/// Builds the kOutOfRange Status the wire maps to `deadline_exceeded`
/// (same transport convention as `overloaded`/`draining`: the code rides
/// in a message prefix, keeping the StatusCode enum closed).
Status DeadlineExceeded(const std::string& detail);

/// Socket-timeout classification for Statuses out of ReadFrame/WriteFrame
/// when the fd has SO_RCVTIMEO/SO_SNDTIMEO set. Idle = the timer expired
/// between frames (nothing lost — the server closes silently, the client
/// may safely retry); mid-frame = it expired with a frame partly
/// transferred (the stream is unrecoverable, close the connection).
bool IsTimeout(const Status& status);
bool IsIdleTimeout(const Status& status);

/// One parsed request frame.
struct Request {
  Op op = Op::kListDatasets;
  std::string tenant;
  std::string dataset;
  /// register_dataset payloads.
  std::string csv_text;
  std::string dc_text;
  /// feedback payload: a user-verified cell value.
  int64_t cell_tid = -1;
  std::string cell_attr;
  std::string cell_value;
  /// append_rows payload: raw string rows, schema arity each. Serialized
  /// only when non-empty (protocol-1 frames round-trip byte-identically).
  std::vector<std::vector<std::string>> rows;
  /// Optional per-request config overrides (subset of HoloCleanConfig
  /// knobs; absent fields keep the server defaults).
  JsonValue config_overrides = JsonValue::Object();
  /// Optional deadline for the whole request, queue wait included; <= 0
  /// means "not set" (the server applies its default). Serialized only
  /// when set, so protocol-1 clients that never heard of deadlines
  /// round-trip byte-identically.
  int64_t deadline_ms = 0;
  /// Retry ordinal stamped by CallWithRetry (0 = first attempt); lets the
  /// server count retried requests. Serialized only when > 0.
  int attempt = 0;

  JsonValue ToJson() const;
  static Result<Request> FromJson(const JsonValue& json);
};

/// Applies the request's config overrides onto `config`. Unknown keys are
/// an error (a misspelled knob silently ignored would be a debugging
/// trap); unmentioned knobs keep their current values. A retired knob
/// that protocol 2 documented is still accepted, type-checked, and
/// ignored.
Status ApplyConfigOverrides(const JsonValue& overrides,
                            HoloCleanConfig* config);

/// Builds the standard response envelopes.
JsonValue OkResponse();
JsonValue ErrorResponse(const Status& status);

// --- Framing ---------------------------------------------------------------

/// Serializes `json` into a length-prefixed frame appended to `out`.
void EncodeFrame(const JsonValue& json, std::string* out);

/// Reads one length-prefixed JSON frame from `fd` (blocking). Returns
/// kNotFound on clean EOF before any byte of a frame, kParseError on a
/// truncated/oversized/malformed frame, kInternal on socket errors. When
/// the fd carries SO_RCVTIMEO, a timer expiry maps to an idle-timeout or
/// mid-frame-timeout Status (see IsIdleTimeout). Failpoint sites:
/// serve.frame.read (error/delay before the read),
/// serve.frame.read_eintr (pretend a syscall was signal-interrupted),
/// serve.frame.read_slice (cap each syscall's bytes — short-read drill).
Result<JsonValue> ReadFrame(int fd);

/// Writes one length-prefixed JSON frame to `fd` (blocking, handles short
/// writes; SO_SNDTIMEO expiry maps to a timeout Status). Failpoint
/// sites: serve.frame.write, serve.frame.write_eintr,
/// serve.frame.write_slice (as for ReadFrame), plus
/// serve.frame.corrupt_write (XOR-flips payload bytes — the peer sees a
/// malformed frame) and serve.frame.truncate_write (sends half the
/// frame, then fails — the peer sees a mid-frame hangup).
Status WriteFrame(int fd, const JsonValue& json);

}  // namespace serve
}  // namespace holoclean

#endif  // HOLOCLEAN_SERVE_PROTOCOL_H_
