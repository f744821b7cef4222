package checkpoint

import (
	"fmt"
	"io"

	"dvsync/internal/simtime"
)

// MarkerSchema is the payload schema of a replay marker. A marker's
// payload is {"schema":2} and nothing else: the envelope's config digest
// and instant say which run to replay and how far. Schema 1 was the full
// simulator state that resume used to restore; it fails the unknown-field
// check and is reported as a SchemaError.
const MarkerSchema = 2

// markerPayload is the whole payload of a replay marker.
type markerPayload struct {
	Schema int `json:"schema"`
}

// SchemaError reports a verified envelope whose payload is not a replay
// marker of MarkerSchema: a schema-1 state snapshot written before resume
// by replay, or a marker of another schema.
type SchemaError struct {
	// Schema is the payload's schema field (0 when it has none).
	Schema int
	// Err is DecodeState's error, nil when the payload decoded.
	Err error
}

func (e *SchemaError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("checkpoint: payload is not a schema-%d replay marker: %v", MarkerSchema, e.Err)
	}
	return fmt.Sprintf("checkpoint: replay marker schema %d, this build reads schema %d", e.Schema, MarkerSchema)
}

func (e *SchemaError) Unwrap() error { return e.Err }

// markerState is the payload every marker carries.
var markerState = fmt.Appendf(nil, `{"schema":%d}`, MarkerSchema)

// EncodeMarker seals a replay marker for the run cfgDigest names, paused
// at the given instant, and writes it to w.
func EncodeMarker(w io.Writer, cfgDigest string, at simtime.Time) error {
	return Encode(w, cfgDigest, at, nil, markerState)
}

// Marker verifies that the envelope is a replay marker of the run
// cfgDigest names and returns the instant to replay to. A marker written
// under another config fails with a DigestError, a payload of another
// schema with a SchemaError, and a negative instant with a CorruptError.
func (e *Envelope) Marker(cfgDigest string) (simtime.Time, error) {
	if err := e.VerifyConfig(cfgDigest); err != nil {
		return 0, err
	}
	var m markerPayload
	if err := e.DecodeState(&m); err != nil {
		return 0, &SchemaError{Err: err}
	}
	if m.Schema != MarkerSchema {
		return 0, &SchemaError{Schema: m.Schema}
	}
	if e.AtNs < 0 {
		return 0, &CorruptError{Reason: fmt.Sprintf("marker instant %d ns is negative", e.AtNs)}
	}
	return e.At(), nil
}

// SaveMarker atomically replaces the slot's snapshot with a replay marker
// for the run cfgDigest names, paused at the given instant.
func (s *Store) SaveMarker(cfgDigest string, at simtime.Time) error {
	return s.Save(cfgDigest, int64(at), nil, markerState)
}

// LoadMarker returns the instant of the slot's newest usable marker for
// the run cfgDigest names. Its errors are Load's (fs.ErrNotExist for an
// empty slot) and Marker's.
func (s *Store) LoadMarker(cfgDigest string) (simtime.Time, error) {
	env, err := s.Load()
	if err != nil {
		return 0, err
	}
	return env.Marker(cfgDigest)
}
