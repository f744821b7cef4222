package checkpoint

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"

	"dvsync/internal/simtime"
)

// schema1State is shaped like the full simulator state a checkpoint
// carried before resume by replay: the payload schema 1 wrote.
const schema1State = `{"at":1000000000,"engine":{"now":1000000000,"seq":412,"next_id":412,"fired":398},` +
	`"panel":{"running":true,"edges":60},"signal":{},"queue":{"slots":[]},"producer":{"next":58},` +
	`"driver":{"next_idx":58,"started":true,"ticks":59},"accum":{"first_latch":33333333,"last_latch":983333333}}`

// TestMarkerRoundTrip: a sealed marker decodes to its instant under its
// own config digest, carries exactly {"schema":2}, and keeps the envelope
// at format version 1.
func TestMarkerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	at := simtime.Time(1500 * simtime.Millisecond)
	if err := EncodeMarker(&buf, "cfg-digest-abc", at); err != nil {
		t.Fatal(err)
	}
	env, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != 1 || string(env.State) != `{"schema":2}` || len(env.Meta) != 0 {
		t.Errorf("marker envelope: version %d, state %s, meta %s; want 1, {\"schema\":2}, none",
			env.Version, env.State, env.Meta)
	}
	got, err := env.Marker("cfg-digest-abc")
	if err != nil {
		t.Fatal(err)
	}
	if got != at {
		t.Errorf("marker instant %v, want %v", got, at)
	}
	var de *DigestError
	if _, err := env.Marker("another-config"); !errors.As(err, &de) || de.Field != "config" {
		t.Errorf("marker under another config: %v, want a config DigestError", err)
	}
}

// TestMarkerRejectsOtherPayloads: a schema-1 state snapshot, a marker of
// another schema and a negative instant, each sealed in a valid envelope,
// fail with typed errors, never a panic; the schema error names the
// schema this build reads.
func TestMarkerRejectsOtherPayloads(t *testing.T) {
	cases := []struct {
		name    string
		at      simtime.Time
		payload string
		check   func(error) bool
	}{
		{"schema-1 state", 1000, schema1State, func(err error) bool {
			var se *SchemaError
			return errors.As(err, &se) && se.Err != nil
		}},
		{"schema 1", 1000, `{"schema":1}`, func(err error) bool {
			var se *SchemaError
			return errors.As(err, &se) && se.Schema == 1
		}},
		{"schema 3", 1000, `{"schema":3}`, func(err error) bool {
			var se *SchemaError
			return errors.As(err, &se) && se.Schema == 3
		}},
		{"empty object", 1000, `{}`, func(err error) bool {
			var se *SchemaError
			return errors.As(err, &se) && se.Schema == 0
		}},
		{"negative instant", -1, `{"schema":2}`, func(err error) bool {
			var ce *CorruptError
			return errors.As(err, &ce)
		}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := Encode(&buf, "d", tc.at, nil, []byte(tc.payload)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		env, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: a valid envelope failed to decode: %v", tc.name, err)
		}
		_, err = env.Marker("d")
		if !tc.check(err) {
			t.Errorf("%s: Marker error %v (%T)", tc.name, err, err)
		}
		var se *SchemaError
		if errors.As(err, &se) && !strings.Contains(err.Error(), "schema 2") && !strings.Contains(err.Error(), "schema-2") {
			t.Errorf("%s: %q does not name schema 2", tc.name, err)
		}
	}
}

// TestStoreMarkers: SaveMarker and LoadMarker round-trip the newest
// instant, fall back to the previous marker when the newest is corrupt,
// report an empty slot as fs.ErrNotExist and an old-schema slot as a
// SchemaError.
func TestStoreMarkers(t *testing.T) {
	st, err := NewStore(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadMarker("d"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty slot: %v, want fs.ErrNotExist", err)
	}
	for _, at := range []simtime.Time{500, 1000} {
		if err := st.SaveMarker("d", at); err != nil {
			t.Fatal(err)
		}
	}
	if at, err := st.LoadMarker("d"); err != nil || at != 1000 {
		t.Fatalf("LoadMarker = %v, %v; want the newest marker, 1000", at, err)
	}
	if err := os.WriteFile(st.Path(), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if at, err := st.LoadMarker("d"); err != nil || at != 500 {
		t.Fatalf("LoadMarker over a corrupt newest marker = %v, %v; want the previous, 500", at, err)
	}
	if err := st.Clear(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("d", 1000, nil, []byte(schema1State)); err != nil {
		t.Fatal(err)
	}
	var se *SchemaError
	if _, err := st.LoadMarker("d"); !errors.As(err, &se) {
		t.Errorf("schema-1 slot: %v, want a SchemaError", err)
	}
}
