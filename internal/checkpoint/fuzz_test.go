package checkpoint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dvsync/internal/simtime"
)

// FuzzDecode feeds arbitrary bytes to the snapshot decoder. The contract
// under fuzz is narrow and absolute: Decode returns (env, nil) only for a
// digest-valid envelope, returns an error for everything else, and never
// panics — dvtrace reads untrusted dump files.
func FuzzDecode(f *testing.F) {
	var good bytes.Buffer
	if err := Encode(&good, "cfg", 42, []byte(`{"k":"v"}`), []byte(`{"state":1}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"dvsync-checkpoint","version":1,"state":{}}`))
	f.Add([]byte(`{"magic":"dvsync-checkpoint","version":99,"state":{},"state_digest":"x"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[1,2,3]`))
	f.Add(good.Bytes()[:good.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted envelopes must verify their own digest and expose a
		// decodable state payload (or a typed error, not a panic).
		if env.Magic != Magic || env.Version != Version {
			t.Fatalf("accepted envelope with magic %q version %d", env.Magic, env.Version)
		}
		var v any
		_ = env.DecodeState(&v)
		_ = env.DecodeMeta(&v)
	})
}

// FuzzEncodeRoundTrip: whatever Encode accepts, Decode accepts back with
// the same header and the same payload meaning. An envelope this package
// seals must never fail its own digest check, whatever the formatting of
// the JSON it was given.
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add("cfg", int64(42), []byte(`{"k":"v"}`), []byte(`{"state":1}`))
	f.Add("cfg", int64(0), []byte(nil), []byte("{\n  \"a\": \"<b>\"\n}"))
	f.Add("", int64(-1), []byte(` "&" `), []byte("[1, 2.50, \"x y\"]"))
	f.Add("d\xff", int64(7), []byte(`null`), []byte(`{}`))
	f.Fuzz(func(t *testing.T, cfg string, at int64, meta, state []byte) {
		var buf bytes.Buffer
		if err := Encode(&buf, cfg, simtime.Time(at), meta, state); err != nil {
			return
		}
		env, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode rejected what Encode sealed: %v", err)
		}
		if env.ConfigDigest != cfg || env.AtNs != at {
			t.Fatalf("header = (%q, %d), sealed (%q, %d)", env.ConfigDigest, env.AtNs, cfg, at)
		}
		if !sameJSON(t, env.State, state) {
			t.Fatalf("state %s resealed as %s", state, env.State)
		}
		if len(meta) > 0 && !sameJSON(t, env.Meta, meta) {
			t.Fatalf("meta %s resealed as %s", meta, env.Meta)
		}
	})
}

// sameJSON reports whether two valid JSON texts decode to the same value
// (numbers compared by their literal text).
func sameJSON(t *testing.T, a, b []byte) bool {
	t.Helper()
	decode := func(p []byte) any {
		dec := json.NewDecoder(bytes.NewReader(p))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("decoding %q: %v", p, err)
		}
		return v
	}
	return reflect.DeepEqual(decode(a), decode(b))
}
