// Package cosim couples the wormhole simulator to external workload
// engines as a queryable timing oracle, over a versioned JSON-lines
// protocol served on stdio (for a co-simulation partner process, the
// uPimulator-style coupling) and HTTP (for control planes like irnetd).
//
// A session is a sequence of frames, one JSON object per LF-terminated
// line. The server opens with a hello frame carrying the protocol version,
// the simulation seed, and a snapshot fingerprint of the network it
// serves; the client then issues query frames — "latency of a transfer
// src→dst of B bytes under the current background load", "advance N
// cycles", "stats" — and receives one reply (or error) frame per query,
// correlated by id.
//
// Determinism is the load-bearing guarantee: the same frame sequence
// against the same seed produces byte-identical replies under both
// transports and both engines. It rests on three mechanisms:
// the oracle handles frames strictly sequentially against one simulator;
// probe path sampling draws from a dedicated RNG stream so queries never
// perturb the background traffic's randomness (wormsim.InjectProbe); and
// latency queries advance the simulator exactly to the probe's delivery
// cycle, never past it. The differential test replays recorded sessions
// through both transports and a direct in-process simulation and compares
// bytes.
//
// docs/COSIM.md is the complete protocol specification external engines
// code against: frame grammar, version negotiation, error codes,
// determinism guarantees, and worked stdio and HTTP transcripts.
package cosim

// Version is the protocol schema version spoken by this package. A client
// hello carrying any other version is rejected with ErrCodeVersion; fields
// added within a version are backward compatible (decoders ignore unknown
// fields).
const Version = 1

// MaxFrameBytes bounds one encoded frame, newline included. Longer lines
// are malformed: the stdio transport cannot resynchronize past an
// oversized line and terminates the session; HTTP rejects the request.
const MaxFrameBytes = 1 << 16

// Frame types.
const (
	// TypeHello opens a session (server→client) and negotiates the
	// version (client→server).
	TypeHello = "hello"
	// TypeQuery is a client request; exactly one reply or error frame
	// answers it, carrying the same id.
	TypeQuery = "query"
	// TypeReply is the server's answer to a query.
	TypeReply = "reply"
	// TypeError is the server's refusal: the query (or the frame itself)
	// could not be served; the session continues unless the code says
	// otherwise.
	TypeError = "error"
)

// Query operations.
const (
	// OpLatency injects a probe transfer and runs the simulation to its
	// delivery cycle: "latency of src→dst, bytes=B under current load".
	OpLatency = "latency"
	// OpAdvance runs the simulation forward a given number of cycles.
	OpAdvance = "advance"
	// OpStats reports the live counters without advancing the clock.
	OpStats = "stats"
	// OpBye ends the session after a final reply.
	OpBye = "bye"
)

// Error codes carried by TypeError frames.
const (
	// ErrCodeBadFrame marks a line that is not a well-formed,
	// server-bound frame (malformed JSON, missing fields, oversized).
	ErrCodeBadFrame = "bad-frame"
	// ErrCodeVersion rejects a client hello whose version this server
	// does not speak.
	ErrCodeVersion = "version-mismatch"
	// ErrCodeBadOp rejects a query whose op is unknown.
	ErrCodeBadOp = "bad-op"
	// ErrCodeBadQuery rejects a query whose parameters are out of range
	// (bad node ids, zero cycles, oversized transfer).
	ErrCodeBadQuery = "bad-query"
	// ErrCodeUnroutable rejects a latency query for a pair with no legal
	// route (possible only on faulted networks).
	ErrCodeUnroutable = "unroutable"
	// ErrCodeDeadlock reports that the simulation aborted (deadlock or
	// livelock) while serving the query; the session is broken and every
	// further query returns ErrCodeBroken.
	ErrCodeDeadlock = "deadlock"
	// ErrCodeTimeout reports a probe still undelivered after the
	// configured cycle limit; the simulator stands at the limit and the
	// session continues.
	ErrCodeTimeout = "probe-timeout"
	// ErrCodeBroken answers every query after the simulation aborted.
	ErrCodeBroken = "broken"
	// ErrCodeClosed answers frames arriving after a bye ended the
	// session (reachable over HTTP only; stdio sessions terminate).
	ErrCodeClosed = "closed"
)
