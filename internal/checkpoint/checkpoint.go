// Package checkpoint implements the versioned, digest-pinned envelope
// behind crash recovery and anomaly dumps (DESIGN.md §12, §15). An
// envelope wraps an opaque payload with a magic string, a format version,
// a digest of the producing configuration, a virtual-time instant, and a
// content digest over the whole envelope. Decoding verifies all of them
// with typed errors — a wrong-version, wrong-config, truncated or
// bit-flipped envelope is rejected, never misinterpreted and never a
// panic.
//
// Two payloads ride in it. A replay marker (EncodeMarker, Store.SaveMarker)
// carries only its schema: a run is a pure function of its config, so
// the config digest and the instant are all a resume needs — it replays
// the run to that instant. An anomaly dump (internal/flight) carries the
// flight recorder's event window.
//
// Payloads are JSON: human-greppable, diffable, and stable under Go's
// deterministic struct-field encoding, which is what makes byte-identical
// dump digests testable at all.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"dvsync/internal/simtime"
)

// Magic identifies a checkpoint file.
const Magic = "dvsync-checkpoint"

// Version is the current envelope format version. Decoding any other
// version fails with a VersionError. Every anomaly dump seals it, so a
// payload change bumps the payload's own schema (MarkerSchema, the trace
// schema) and leaves this alone.
const Version = 1

// MaxSnapshotBytes bounds how much a decoder will read. Markers are a few
// hundred bytes and dumps of real runs well under a megabyte; anything
// approaching this cap is corrupt or hostile input.
const MaxSnapshotBytes = 1 << 28

// ErrNotCheckpoint reports input that is not a checkpoint envelope at all
// (wrong magic, not JSON, empty).
var ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint envelope")

// VersionError reports an envelope from an unsupported format version.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: format version %d, this build reads %d", e.Got, e.Want)
}

// DigestError reports a digest mismatch: the content digest (bit rot,
// truncation mid-payload) or the config digest (resuming under a different
// configuration than the one that produced the snapshot).
type DigestError struct {
	Field     string // "state" or "config"
	Want, Got string
}

func (e *DigestError) Error() string {
	return fmt.Sprintf("checkpoint: %s digest mismatch: want %s, got %s", e.Field, e.Want, e.Got)
}

// CorruptError reports a structurally damaged envelope or payload.
type CorruptError struct {
	Reason string
	Err    error
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("checkpoint: corrupt snapshot: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("checkpoint: corrupt snapshot: %s", e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Envelope is the on-disk checkpoint frame. State is the opaque simulation
// payload; Meta carries optional caller annotations (scenario name, CLI
// arguments) that are digest-protected but not interpreted here.
type Envelope struct {
	Magic        string          `json:"magic"`
	Version      int             `json:"version"`
	ConfigDigest string          `json:"config_digest"`
	AtNs         int64           `json:"at_ns"`
	Meta         json.RawMessage `json:"meta,omitempty"`
	State        json.RawMessage `json:"state"`
	StateDigest  string          `json:"state_digest"`
}

// At returns the snapshot's virtual-time instant.
func (e *Envelope) At() simtime.Time { return simtime.Time(e.AtNs) }

// digestOf computes the content digest: a sha256 over the digest-relevant
// header fields and both payloads, with explicit lengths so no field can
// masquerade as another.
func digestOf(cfgDigest string, atNs int64, meta, state []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n%s\n%d\n%d\n%d\n", Magic, Version, cfgDigest, atNs, len(meta), len(state))
	h.Write(meta)
	h.Write(state)
	return hex.EncodeToString(h.Sum(nil))
}

// Encode seals state (and optional meta) taken at the given instant under
// the given config digest, and writes the envelope to w. Both payloads are
// digested in canonical form — compact and HTML-escaped, which is how the
// envelope's JSON encoding writes a raw payload — so Decode reads back
// exactly the bytes that were digested. json.Marshal output is already
// canonical and seals unchanged.
func Encode(w io.Writer, cfgDigest string, at simtime.Time, meta, state json.RawMessage) error {
	// The encoder would replace invalid UTF-8 in the header string, and
	// the digest would no longer match it.
	if !utf8.ValidString(cfgDigest) {
		return fmt.Errorf("checkpoint: config digest is not valid UTF-8")
	}
	state, err := canonical(state)
	if err != nil {
		return fmt.Errorf("checkpoint: state payload is not valid JSON")
	}
	if len(meta) > 0 {
		if meta, err = canonical(meta); err != nil {
			return fmt.Errorf("checkpoint: meta payload is not valid JSON")
		}
	}
	env := Envelope{
		Magic:        Magic,
		Version:      Version,
		ConfigDigest: cfgDigest,
		AtNs:         int64(at),
		Meta:         meta,
		State:        state,
		StateDigest:  digestOf(cfgDigest, int64(at), meta, state),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&env)
}

// canonical validates a JSON payload and returns it compacted and
// HTML-escaped.
func canonical(p []byte) ([]byte, error) {
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, p); err != nil {
		return nil, err
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes(), nil
}

// Decode reads and verifies one envelope: magic, version, size cap, and
// content digest. It does not interpret the state payload — callers unpack
// it with DecodeState after VerifyConfig.
func Decode(r io.Reader) (*Envelope, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxSnapshotBytes+1))
	if err != nil {
		return nil, &CorruptError{Reason: "read", Err: err}
	}
	if len(data) > MaxSnapshotBytes {
		return nil, &CorruptError{Reason: fmt.Sprintf("snapshot exceeds %d bytes", MaxSnapshotBytes)}
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return nil, ErrNotCheckpoint
	}
	// Probe the magic leniently before the strict decode: a well-formed
	// JSON object that simply isn't ours (a JSONL trace line, some other
	// tool's output) is "not a checkpoint", not a corrupt envelope —
	// callers dispatch on that distinction to fall back to other formats.
	// A Decoder reads just the first object, so trailing JSONL lines don't
	// defeat the probe; trailing data after a real envelope still fails in
	// ensureEOF below.
	var probe struct {
		Magic string `json:"magic"`
	}
	if err := json.NewDecoder(bytes.NewReader(trimmed)).Decode(&probe); err == nil && probe.Magic != Magic {
		return nil, ErrNotCheckpoint
	}
	var env Envelope
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, &CorruptError{Reason: "envelope", Err: err}
	}
	if err := ensureEOF(dec); err != nil {
		return nil, err
	}
	if env.Magic != Magic {
		return nil, ErrNotCheckpoint
	}
	if env.Version != Version {
		return nil, &VersionError{Got: env.Version, Want: Version}
	}
	if len(env.State) == 0 {
		return nil, &CorruptError{Reason: "empty state payload"}
	}
	want := digestOf(env.ConfigDigest, env.AtNs, env.Meta, env.State)
	if env.StateDigest != want {
		return nil, &DigestError{Field: "state", Want: want, Got: env.StateDigest}
	}
	return &env, nil
}

// ensureEOF rejects trailing garbage after the envelope object.
func ensureEOF(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return &CorruptError{Reason: "trailing data after envelope"}
	}
	return nil
}

// VerifyConfig checks that the envelope was produced under the given
// configuration digest.
func (e *Envelope) VerifyConfig(cfgDigest string) error {
	if e.ConfigDigest != cfgDigest {
		return &DigestError{Field: "config", Want: cfgDigest, Got: e.ConfigDigest}
	}
	return nil
}

// DecodeState unpacks the state payload into v, rejecting unknown fields
// so a payload from a different state layout fails loudly.
func (e *Envelope) DecodeState(v any) error {
	dec := json.NewDecoder(bytes.NewReader(e.State))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &CorruptError{Reason: "state payload", Err: err}
	}
	return nil
}

// DecodeMeta unpacks the optional meta payload into v; a missing meta
// payload leaves v untouched.
func (e *Envelope) DecodeMeta(v any) error {
	if len(e.Meta) == 0 {
		return nil
	}
	if err := json.Unmarshal(e.Meta, v); err != nil {
		return &CorruptError{Reason: "meta payload", Err: err}
	}
	return nil
}
