package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dvsync/internal/checkpoint"
	"dvsync/internal/trace"
)

// DumpKind is the meta stamp distinguishing anomaly dumps from replay
// markers inside the shared envelope format.
const DumpKind = "flight-dump"

// ErrNotDump reports a valid checkpoint envelope that is not an anomaly
// dump (a replay marker, or a foreign meta stamp).
var ErrNotDump = errors.New("flight: envelope is not an anomaly dump")

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
// digest, using the checkpoint envelope discipline: magic, version,
// config digest, content digest, typed errors on the way back in.
func EncodeDump(w io.Writer, cfgDigest string, d *Dump) error {
	meta, err := json.Marshal(dumpMeta{
		Kind: DumpKind, Trigger: d.Trigger.Kind, Detail: d.Trigger.Detail,
		Schema: d.SchemaVersion, Events: len(d.Events),
	})
	if err != nil {
		return fmt.Errorf("flight: encode dump meta: %w", err)
	}
	state, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("flight: encode dump: %w", err)
	}
	return checkpoint.Encode(w, cfgDigest, d.Trigger.At, meta, state)
}

// DecodeDump reads and verifies one anomaly dump. cfgDigest pins the
// producing configuration; pass "" to accept any (dvtrace -why reads
// dumps without knowing the config). Returns the dump and the envelope's
// config digest. Errors are the checkpoint package's typed errors, plus
// ErrNotDump for envelopes that are not anomaly dumps.
func DecodeDump(r io.Reader, cfgDigest string) (*Dump, string, error) {
	env, err := checkpoint.Decode(r)
	if err != nil {
		return nil, "", err
	}
	var meta dumpMeta
	if err := env.DecodeMeta(&meta); err != nil {
		return nil, "", err
	}
	if meta.Kind != DumpKind {
		return nil, "", ErrNotDump
	}
	if cfgDigest != "" {
		if err := env.VerifyConfig(cfgDigest); err != nil {
			return nil, "", err
		}
	}
	var d Dump
	if err := env.DecodeState(&d); err != nil {
		return nil, "", err
	}
	if d.SchemaVersion < 1 || d.SchemaVersion > trace.SchemaVersion {
		return nil, "", &checkpoint.CorruptError{
			Reason: fmt.Sprintf("dump schema v%d outside [1, %d]", d.SchemaVersion, trace.SchemaVersion)}
	}
	if len(d.Events) != meta.Events {
		return nil, "", &checkpoint.CorruptError{
			Reason: fmt.Sprintf("dump has %d events, meta says %d", len(d.Events), meta.Events)}
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].At < d.Events[i-1].At {
			return nil, "", &checkpoint.CorruptError{
				Reason: fmt.Sprintf("dump events out of order at %d", i)}
		}
	}
	return &d, env.ConfigDigest, nil
}
