package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvsync/internal/simtime"
)

func sealed(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	state := []byte(`{"engine":{"now":42},"queue":[1,2,3]}`)
	meta := []byte(`{"scenario":"steady"}`)
	if err := Encode(&buf, "cfg-digest-abc", simtime.Time(42), meta, state); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := sealed(t)
	env, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if env.At() != simtime.Time(42) {
		t.Errorf("at = %v, want 42ns", env.At())
	}
	if err := env.VerifyConfig("cfg-digest-abc"); err != nil {
		t.Errorf("config verify: %v", err)
	}
	var st struct {
		Engine struct {
			Now int64 `json:"now"`
		} `json:"engine"`
		Queue []int `json:"queue"`
	}
	if err := env.DecodeState(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Now != 42 || len(st.Queue) != 3 {
		t.Errorf("state round trip mangled: %+v", st)
	}
	var meta map[string]string
	if err := env.DecodeMeta(&meta); err != nil {
		t.Fatal(err)
	}
	if meta["scenario"] != "steady" {
		t.Errorf("meta round trip mangled: %v", meta)
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	data := sealed(t)
	// Flip one bit inside the state payload region and require a typed
	// digest error (or a corrupt error if the flip breaks JSON framing).
	idx := bytes.Index(data, []byte(`"queue"`))
	if idx < 0 {
		t.Fatal("payload marker not found")
	}
	for _, at := range []int{idx + 1, idx + 3, len(data) / 2} {
		flipped := append([]byte(nil), data...)
		flipped[at] ^= 0x01
		_, err := Decode(bytes.NewReader(flipped))
		if err == nil {
			t.Fatalf("bit flip at %d: decode accepted corrupt snapshot", at)
		}
		var de *DigestError
		var ce *CorruptError
		if !errors.As(err, &de) && !errors.As(err, &ce) && !errors.Is(err, ErrNotCheckpoint) {
			t.Errorf("bit flip at %d: untyped error %v", at, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := sealed(t)
	for _, n := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 2} {
		_, err := Decode(bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("truncation to %d bytes: decode accepted", n)
		}
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data := bytes.Replace(sealed(t), []byte(`"version":1`), []byte(`"version":2`), 1)
	_, err := Decode(bytes.NewReader(data))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want VersionError, got %v", err)
	}
	if ve.Got != 2 || ve.Want != Version {
		t.Errorf("version error fields: %+v", ve)
	}
}

func TestDecodeRejectsNonCheckpoints(t *testing.T) {
	for _, in := range []string{"", "   ", "not json", `[1,2,3]`, `{"magic":"something-else","version":1,"state":{}}`, `{}`} {
		_, err := Decode(strings.NewReader(in))
		if err == nil {
			t.Fatalf("input %q: decode accepted", in)
		}
	}
	_, err := Decode(strings.NewReader(`{"magic":"dvsync-checkpoint"}`))
	if err == nil {
		t.Fatal("envelope without state accepted")
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	data := append(sealed(t), []byte("{}")...)
	var ce *CorruptError
	if _, err := Decode(bytes.NewReader(data)); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError for trailing data, got %v", err)
	}
}

func TestVerifyConfigMismatch(t *testing.T) {
	env, err := Decode(bytes.NewReader(sealed(t)))
	if err != nil {
		t.Fatal(err)
	}
	var de *DigestError
	if err := env.VerifyConfig("other-digest"); !errors.As(err, &de) {
		t.Fatalf("want DigestError, got %v", err)
	}
	if de.Field != "config" {
		t.Errorf("digest error field = %q, want config", de.Field)
	}
}

func TestEncodeRejectsInvalidPayloads(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, "d", 0, nil, []byte("not json")); err == nil {
		t.Error("invalid state accepted")
	}
	if err := Encode(&buf, "d", 0, []byte("not json"), []byte(`{}`)); err == nil {
		t.Error("invalid meta accepted")
	}
	if err := Encode(&buf, "d\xff", 0, nil, []byte(`{}`)); err == nil {
		t.Error("config digest with invalid UTF-8 accepted")
	}
}

// TestEncodeCanonicalisesPayloads: valid JSON that is not in the form the
// envelope encoder writes — indented, padded, or carrying a raw <, > or &
// in a string, which the encoder HTML-escapes — must still seal into an
// envelope that Decode accepts, with the payload meaning unchanged. A
// payload already in canonical form (json.Marshal output) must seal
// byte-for-byte as given, so existing digests do not move.
func TestEncodeCanonicalisesPayloads(t *testing.T) {
	for _, tc := range []struct {
		name        string
		meta, state string
		canonical   bool
	}{
		{name: "html-in-string", state: `{"a":"<b>"}`},
		{name: "ampersand-in-meta", meta: `{"scenario":"a&b"}`, state: `{}`},
		{name: "indented", state: "{\n  \"a\": [\n    1,\n    2\n  ]\n}"},
		{name: "padded", meta: ` {"k":"v"} `, state: "\t[1, 2]\n"},
		{name: "line-separator", state: "{\"a\":\"x\u2028y\"}"},
		{name: "canonical", meta: `{"k":"v"}`, state: `{"a":[1,2],"b":"\u003cb\u003e"}`, canonical: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Encode(&buf, "cfg", 7, []byte(tc.meta), []byte(tc.state)); err != nil {
				t.Fatal(err)
			}
			env, err := Decode(&buf)
			if err != nil {
				t.Fatalf("Decode rejected what Encode sealed: %v", err)
			}
			var want, got any
			if err := json.Unmarshal([]byte(tc.state), &want); err != nil {
				t.Fatal(err)
			}
			if err := env.DecodeState(&got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("state = %v, want %v", got, want)
			}
			if tc.canonical && (string(env.State) != tc.state || string(env.Meta) != tc.meta) {
				t.Errorf("canonical payloads resealed as meta %s state %s", env.Meta, env.State)
			}
		})
	}
}

func TestStoreSaveLoadRotate(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty slot: want fs.ErrNotExist, got %v", err)
	}
	if err := st.Save("d", 100, nil, []byte(`{"gen":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("d", 200, nil, []byte(`{"gen":2}`)); err != nil {
		t.Fatal(err)
	}
	env, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if env.AtNs != 200 {
		t.Errorf("loaded at %d, want the newest (200)", env.AtNs)
	}
	if _, err := ReadFile(st.PrevPath()); err != nil {
		t.Errorf("rotation should keep the previous snapshot: %v", err)
	}

	// Corrupt the current snapshot: Load must fall back to .prev.
	if err := os.WriteFile(st.Path(), []byte(`{"magic":"dvsync-checkpoint",garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	env, err = st.Load()
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if env.AtNs != 100 {
		t.Errorf("fallback loaded at %d, want the previous (100)", env.AtNs)
	}

	// Corrupt both: Load must fail with a non-NotExist error.
	if err := os.WriteFile(st.PrevPath(), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("doubly corrupt slot: want hard error, got %v", err)
	}

	if err := st.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("cleared slot: want fs.ErrNotExist, got %v", err)
	}
}

func TestStoreRejectsBadSlotNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"", ".hidden", "a/b", "../escape", "x y", strings.Repeat("n", 200)} {
		if _, err := NewStore(dir, name); err == nil {
			t.Errorf("slot name %q accepted", name)
		}
	}
	if _, err := NewStore("", "ok"); err == nil {
		t.Error("empty directory accepted")
	}
}

func TestStoreSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("d", 1, nil, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	// No temp litter after a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %q left behind", e.Name())
		}
	}
	if filepath.Base(st.Path()) != "run.ckpt" {
		t.Errorf("unexpected snapshot name %q", st.Path())
	}
}
