package flight

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"dvsync/internal/trace"
)

// The dump envelope (DESIGN.md §12) wraps a dump in a magic string, a
// format version, the producing run's config digest, the trigger instant
// and a content digest over all of them. Its magic is older than the
// flight recorder and stays: every pinned dump byte carries it.
const (
	envelopeMagic = "dvsync-checkpoint"
	// envelopeVersion is the envelope format version; decoding any other
	// fails with a VersionError. A payload change bumps the trace schema
	// and leaves this alone.
	envelopeVersion = 1
	// maxDumpBytes bounds how much DecodeDump reads. Dumps of real runs
	// are well under a megabyte; anything near this cap is corrupt or
	// hostile input.
	maxDumpBytes = 1 << 28
)

// dumpKind is the meta stamp that marks an envelope as an anomaly dump.
const dumpKind = "flight-dump"

var (
	// ErrNotEnvelope reports input that is not a dump envelope at all
	// (wrong magic, not a JSON object, empty): dvtrace reads it as JSONL.
	ErrNotEnvelope = errors.New("flight: not a dump envelope")
	// ErrNotDump reports a valid envelope that is not an anomaly dump (a
	// foreign meta stamp, or none).
	ErrNotDump = errors.New("flight: envelope is not an anomaly dump")
)

// VersionError reports an envelope from an unsupported format version.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("flight: envelope format version %d, this build reads %d", e.Got, e.Want)
}

// DigestError reports a digest mismatch: the content digest (bit rot,
// truncation mid-payload) or the config digest (a dump read under a
// different configuration than the one that produced it).
type DigestError struct {
	Field     string // "state" or "config"
	Want, Got string
}

func (e *DigestError) Error() string {
	return fmt.Sprintf("flight: %s digest mismatch: want %s, got %s", e.Field, e.Want, e.Got)
}

// CorruptError reports a structurally damaged envelope or dump.
type CorruptError struct {
	Reason string
	Err    error
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("flight: corrupt dump: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("flight: corrupt dump: %s", e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// envelope is the sealed frame: Meta lists the dump (dumpMeta), State is
// the dump itself.
type envelope struct {
	Magic        string          `json:"magic"`
	Version      int             `json:"version"`
	ConfigDigest string          `json:"config_digest"`
	AtNs         int64           `json:"at_ns"`
	Meta         json.RawMessage `json:"meta,omitempty"`
	State        json.RawMessage `json:"state"`
	StateDigest  string          `json:"state_digest"`
}

// envelopeDigest is the content digest: a sha256 over the header fields
// and both payloads, with explicit lengths so no field can masquerade as
// another.
func envelopeDigest(cfgDigest string, atNs int64, meta, state []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n%s\n%d\n%d\n%d\n", envelopeMagic, envelopeVersion, cfgDigest, atNs, len(meta), len(state))
	h.Write(meta)
	h.Write(state)
	return hex.EncodeToString(h.Sum(nil))
}

// dumpMeta is the envelope meta payload: enough to list an anomaly
// without decoding its event window.
type dumpMeta struct {
	Kind    string      `json:"kind"`
	Trigger TriggerKind `json:"trigger"`
	Detail  string      `json:"detail,omitempty"`
	Schema  int         `json:"schema"`
	Events  int         `json:"events"`
}

// DumpID derives the deterministic identifier of the index-th dump of a
// run: a config-digest prefix, the dump index, and the trigger kind —
// e.g. "3f8a2c91b4d0-00-jank-burst". Identical runs yield identical ids,
// which is what lets fleet cache hits reuse cached dumps. Name a run's
// dumps through Ring.DumpIDs.
func DumpID(cfgDigest string, index int, kind TriggerKind) string {
	prefix := cfgDigest
	if len(prefix) > 12 {
		prefix = prefix[:12]
	}
	return fmt.Sprintf("%s-%02d-%s", prefix, index, kind)
}

// EncodeDump seals one anomaly dump under the producing run's config
// digest. Both payloads are json.Marshal output, which is already in the
// compact, HTML-escaped form the envelope's encoder writes a raw payload
// in, so DecodeDump reads back exactly the bytes that were digested.
func EncodeDump(w io.Writer, cfgDigest string, d *Dump) error {
	// The encoder would replace invalid UTF-8 in the header string, and
	// the digest would no longer match it.
	if !utf8.ValidString(cfgDigest) {
		return fmt.Errorf("flight: config digest is not valid UTF-8")
	}
	meta, err := json.Marshal(dumpMeta{
		Kind: dumpKind, Trigger: d.Trigger.Kind, Detail: d.Trigger.Detail,
		Schema: d.SchemaVersion, Events: len(d.Events),
	})
	if err != nil {
		return fmt.Errorf("flight: encode dump meta: %w", err)
	}
	state, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("flight: encode dump: %w", err)
	}
	at := int64(d.Trigger.At)
	return json.NewEncoder(w).Encode(&envelope{
		Magic:        envelopeMagic,
		Version:      envelopeVersion,
		ConfigDigest: cfgDigest,
		AtNs:         at,
		Meta:         meta,
		State:        state,
		StateDigest:  envelopeDigest(cfgDigest, at, meta, state),
	})
}

// DecodeDump reads and verifies one anomaly dump. cfgDigest pins the
// producing configuration; pass "" to accept any (dvtrace -why reads
// dumps without knowing the config). Returns the dump and the envelope's
// config digest. Input that is not an envelope at all is ErrNotEnvelope,
// an envelope that is not a dump ErrNotDump; everything else that fails
// is a VersionError, DigestError or CorruptError, never a panic.
func DecodeDump(r io.Reader, cfgDigest string) (*Dump, string, error) {
	env, err := readEnvelope(r)
	if err != nil {
		return nil, "", err
	}
	var meta dumpMeta
	if len(env.Meta) > 0 {
		if err := json.Unmarshal(env.Meta, &meta); err != nil {
			return nil, "", &CorruptError{Reason: "meta payload", Err: err}
		}
	}
	if meta.Kind != dumpKind {
		return nil, "", ErrNotDump
	}
	if cfgDigest != "" && env.ConfigDigest != cfgDigest {
		return nil, "", &DigestError{Field: "config", Want: cfgDigest, Got: env.ConfigDigest}
	}
	// Unknown fields fail loudly: a payload from another dump layout is
	// rejected, never half-read.
	var d Dump
	dec := json.NewDecoder(bytes.NewReader(env.State))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, "", &CorruptError{Reason: "state payload", Err: err}
	}
	if d.SchemaVersion < 1 || d.SchemaVersion > trace.SchemaVersion {
		return nil, "", &CorruptError{
			Reason: fmt.Sprintf("dump schema v%d outside [1, %d]", d.SchemaVersion, trace.SchemaVersion)}
	}
	if len(d.Events) != meta.Events {
		return nil, "", &CorruptError{
			Reason: fmt.Sprintf("dump has %d events, meta says %d", len(d.Events), meta.Events)}
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].At < d.Events[i-1].At {
			return nil, "", &CorruptError{
				Reason: fmt.Sprintf("dump events out of order at %d", i)}
		}
	}
	return &d, env.ConfigDigest, nil
}

// readEnvelope reads one envelope and verifies its magic, version, size
// cap and content digest. It does not interpret the payloads.
func readEnvelope(r io.Reader) (*envelope, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxDumpBytes+1))
	if err != nil {
		return nil, &CorruptError{Reason: "read", Err: err}
	}
	if len(data) > maxDumpBytes {
		return nil, &CorruptError{Reason: fmt.Sprintf("dump exceeds %d bytes", maxDumpBytes)}
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return nil, ErrNotEnvelope
	}
	// Probe the magic leniently before the strict decode: a well-formed
	// JSON object that simply isn't ours (a JSONL trace line, some other
	// tool's output) is "not an envelope", not a corrupt one — dvtrace
	// dispatches on that distinction to fall back to JSONL. A Decoder
	// reads just the first object, so trailing JSONL lines don't defeat
	// the probe; trailing data after a real envelope still fails below.
	var probe struct {
		Magic string `json:"magic"`
	}
	if err := json.NewDecoder(bytes.NewReader(trimmed)).Decode(&probe); err == nil && probe.Magic != envelopeMagic {
		return nil, ErrNotEnvelope
	}
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, &CorruptError{Reason: "envelope", Err: err}
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, &CorruptError{Reason: "trailing data after envelope"}
	}
	if env.Magic != envelopeMagic {
		return nil, ErrNotEnvelope
	}
	if env.Version != envelopeVersion {
		return nil, &VersionError{Got: env.Version, Want: envelopeVersion}
	}
	if len(env.State) == 0 {
		return nil, &CorruptError{Reason: "empty state payload"}
	}
	want := envelopeDigest(env.ConfigDigest, env.AtNs, env.Meta, env.State)
	if env.StateDigest != want {
		return nil, &DigestError{Field: "state", Want: want, Got: env.StateDigest}
	}
	return &env, nil
}
