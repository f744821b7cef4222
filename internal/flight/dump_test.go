package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dvsync/internal/simtime"
	"dvsync/internal/trace"
)

const testDigest = "deadbeefdeadbeefdeadbeefdeadbeef"

func testDump() *Dump {
	return &Dump{
		SchemaVersion: trace.SchemaVersion,
		Trigger: Trigger{Kind: TriggerFallback,
			At: simtime.Time(simtime.Second), Detail: "to=VSync reason=fdps"},
		Events: []trace.Event{ev(990, trace.Jank, 3, ""), ev(1000, trace.Fallback, -1, "to=VSync reason=fdps")},
	}
}

// sealed returns testDump sealed under testDigest.
func sealed(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeDump(&buf, testDigest, testDump()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seal wraps arbitrary compact JSON payloads in a digest-valid envelope,
// for envelopes EncodeDump never writes.
func seal(t testing.TB, meta, state string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&envelope{
		Magic: envelopeMagic, Version: envelopeVersion, ConfigDigest: testDigest,
		Meta: json.RawMessage(meta), State: json.RawMessage(state),
		StateDigest: envelopeDigest(testDigest, 0, []byte(meta), []byte(state)),
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDumpEncodeDecodeRoundTrip: a sealed dump survives the envelope and
// pins its producing config digest.
func TestDumpEncodeDecodeRoundTrip(t *testing.T) {
	d, data := testDump(), sealed(t)
	got, gotDigest, err := DecodeDump(bytes.NewReader(data), testDigest)
	if err != nil {
		t.Fatal(err)
	}
	if gotDigest != testDigest || !reflect.DeepEqual(got, d) {
		t.Errorf("round trip: digest %q dump %+v", gotDigest, got)
	}
	// "" accepts any digest (the dvtrace -why path) but still reports it.
	if _, gotDigest, err = DecodeDump(bytes.NewReader(data), ""); err != nil || gotDigest != testDigest {
		t.Errorf("unpinned decode: digest %q err %v", gotDigest, err)
	}
	// An envelope with a foreign meta stamp, or none, is ErrNotDump.
	for _, meta := range []string{`{"kind":"other"}`, ""} {
		if _, _, err := DecodeDump(bytes.NewReader(seal(t, meta, `{}`)), ""); !errors.Is(err, ErrNotDump) {
			t.Errorf("meta %q: err %v, want ErrNotDump", meta, err)
		}
	}
	// Flipping a payload byte trips the envelope's content digest.
	bad := append([]byte(nil), data...)
	bad[len(bad)-2] ^= 0x40
	if _, _, err := DecodeDump(bytes.NewReader(bad), testDigest); err == nil {
		t.Error("corrupted envelope decoded cleanly")
	}
}

// TestDecodeDumpConfigMismatch: a dump read under another config digest
// than the one that sealed it is a typed config digest error.
func TestDecodeDumpConfigMismatch(t *testing.T) {
	_, _, err := DecodeDump(bytes.NewReader(sealed(t)), "other-digest")
	var de *DigestError
	if !errors.As(err, &de) {
		t.Fatalf("want DigestError, got %v", err)
	}
	if de.Field != "config" || de.Want != "other-digest" || de.Got != testDigest {
		t.Errorf("digest error fields: %+v", de)
	}
}

// TestEnvelopeRoundTrip: the envelope EncodeDump seals carries the config
// digest, the trigger instant, and a meta listing of the dump that agrees
// with the dump in its state payload.
func TestEnvelopeRoundTrip(t *testing.T) {
	d := testDump()
	env, err := readEnvelope(bytes.NewReader(sealed(t)))
	if err != nil {
		t.Fatal(err)
	}
	if env.ConfigDigest != testDigest || env.AtNs != int64(d.Trigger.At) {
		t.Errorf("header = (%q, %d ns), want (%q, %d ns)", env.ConfigDigest, env.AtNs, testDigest, int64(d.Trigger.At))
	}
	var meta dumpMeta
	if err := json.Unmarshal(env.Meta, &meta); err != nil {
		t.Fatal(err)
	}
	want := dumpMeta{Kind: dumpKind, Trigger: d.Trigger.Kind, Detail: d.Trigger.Detail,
		Schema: d.SchemaVersion, Events: len(d.Events)}
	if meta != want {
		t.Errorf("meta = %+v, want %+v", meta, want)
	}
	var state Dump
	if err := json.Unmarshal(env.State, &state); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&state, d) {
		t.Errorf("state = %+v, want %+v", state, d)
	}
}

func TestDecodeDumpRejectsBitFlips(t *testing.T) {
	data := sealed(t)
	// Flip one bit inside the dump payload and require a typed digest
	// error (or a corrupt error if the flip breaks JSON framing).
	idx := bytes.Index(data, []byte(`"events"`))
	if idx < 0 {
		t.Fatal("payload marker not found")
	}
	for _, at := range []int{idx + 1, idx + 3, idx + 20, len(data) / 2} {
		flipped := append([]byte(nil), data...)
		flipped[at] ^= 0x01
		_, _, err := DecodeDump(bytes.NewReader(flipped), "")
		if err == nil {
			t.Fatalf("bit flip at %d: decode accepted a corrupt dump", at)
		}
		var de *DigestError
		var ce *CorruptError
		if !errors.As(err, &de) && !errors.As(err, &ce) && !errors.Is(err, ErrNotEnvelope) {
			t.Errorf("bit flip at %d: untyped error %v", at, err)
		}
	}
}

func TestDecodeDumpRejectsTruncation(t *testing.T) {
	data := sealed(t)
	for _, n := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 2} {
		if _, _, err := DecodeDump(bytes.NewReader(data[:n]), ""); err == nil {
			t.Fatalf("truncation to %d bytes: decode accepted", n)
		}
	}
}

func TestDecodeDumpRejectsWrongVersion(t *testing.T) {
	data := bytes.Replace(sealed(t), []byte(`"version":1`), []byte(`"version":2`), 1)
	_, _, err := DecodeDump(bytes.NewReader(data), "")
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want VersionError, got %v", err)
	}
	if ve.Got != 2 || ve.Want != envelopeVersion {
		t.Errorf("version error fields: %+v", ve)
	}
}

// TestDecodeDumpRejectsNonEnvelopes: input that is not an envelope at all
// is ErrNotEnvelope, the distinction dvtrace dispatches on to read JSONL;
// an envelope that lacks its state is not.
func TestDecodeDumpRejectsNonEnvelopes(t *testing.T) {
	for _, in := range []string{"", "   ", "not json", `[1,2,3]`, `{"magic":"something-else","version":1,"state":{}}`, `{}`,
		"{\"at\":0,\"kind\":\"jank\",\"frame\":1}\n{\"at\":1,\"kind\":\"jank\",\"frame\":2}\n"} {
		if _, _, err := DecodeDump(strings.NewReader(in), ""); !errors.Is(err, ErrNotEnvelope) {
			t.Errorf("input %q: err %v, want ErrNotEnvelope", in, err)
		}
	}
	_, _, err := DecodeDump(strings.NewReader(`{"magic":"dvsync-checkpoint","version":1}`), "")
	if err == nil || errors.Is(err, ErrNotEnvelope) {
		t.Fatalf("envelope without state: err %v, want a typed rejection", err)
	}
}

func TestDecodeDumpRejectsTrailingData(t *testing.T) {
	data := append(sealed(t), []byte("{}")...)
	var ce *CorruptError
	if _, _, err := DecodeDump(bytes.NewReader(data), ""); !errors.As(err, &ce) {
		t.Fatalf("want CorruptError for trailing data, got %v", err)
	}
}

func TestEncodeDumpRejectsInvalidDigest(t *testing.T) {
	if err := EncodeDump(&bytes.Buffer{}, "d\xff", testDump()); err == nil {
		t.Error("config digest with invalid UTF-8 accepted")
	}
}

// TestEncodeDumpEscapedText: text the envelope's encoder escapes (<, >,
// &, U+2028 and U+2029, in the dump and in its meta) seals into an envelope
// DecodeDump accepts, because json.Marshal escapes it the same way before
// the digest is taken.
func TestEncodeDumpEscapedText(t *testing.T) {
	for _, tc := range []struct{ name, trigger, event string }{
		{name: "html-in-string", event: "<b>"},
		{name: "ampersand-in-meta", trigger: "a&b"},
		{name: "line-separator", trigger: "x\u2028y", event: "x\u2029y"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDump()
			d.Trigger.Detail = tc.trigger
			d.Events[0].Detail = tc.event
			var buf bytes.Buffer
			if err := EncodeDump(&buf, testDigest, d); err != nil {
				t.Fatal(err)
			}
			got, _, err := DecodeDump(&buf, testDigest)
			if err != nil {
				t.Fatalf("DecodeDump rejected what EncodeDump sealed: %v", err)
			}
			if !reflect.DeepEqual(got, d) {
				t.Errorf("dump = %+v, want %+v", got, d)
			}
		})
	}
}

// FuzzDecodeDump feeds arbitrary bytes to the dump decoder. The contract
// under fuzz is narrow and absolute: DecodeDump returns a dump only for a
// digest-valid envelope whose dump satisfies the invariants it promises,
// an error for everything else, and never panics — dvtrace reads
// untrusted dump files.
func FuzzDecodeDump(f *testing.F) {
	d := &Dump{
		SchemaVersion: trace.SchemaVersion,
		Trigger:       Trigger{Kind: TriggerJankBurst, At: simtime.Time(simtime.Millisecond)},
		Events:        []trace.Event{ev(0, trace.Jank, 0, ""), ev(1, trace.Jank, 1, "")},
	}
	var buf bytes.Buffer
	if err := EncodeDump(&buf, "cafef00dcafef00d", d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("not an envelope"))
	f.Add(seal(f, `{"kind":"other"}`, `{"state":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, err := DecodeDump(bytes.NewReader(data), "")
		if err != nil {
			return
		}
		if got.SchemaVersion < 1 || got.SchemaVersion > trace.SchemaVersion {
			t.Fatalf("decoded schema v%d out of range", got.SchemaVersion)
		}
		for i := 1; i < len(got.Events); i++ {
			if got.Events[i].At < got.Events[i-1].At {
				t.Fatalf("decoded events out of order at %d", i)
			}
		}
	})
}

// FuzzReadEnvelope feeds arbitrary bytes to the envelope layer under
// DecodeDump. readEnvelope returns an envelope only when it carries the
// magic, the version, a state payload and a content digest that verifies
// over valid JSON payloads; it returns an error for everything else and
// never panics.
func FuzzReadEnvelope(f *testing.F) {
	good := seal(f, `{"k":"v"}`, `{"state":1}`)
	f.Add(good)
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"dvsync-checkpoint","version":1,"state":{}}`))
	f.Add([]byte(`{"magic":"dvsync-checkpoint","version":99,"state":{},"state_digest":"x"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[1,2,3]`))
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readEnvelope(bytes.NewReader(data))
		if err != nil {
			return
		}
		if env.Magic != envelopeMagic || env.Version != envelopeVersion {
			t.Fatalf("accepted envelope with magic %q version %d", env.Magic, env.Version)
		}
		if !json.Valid(env.State) || (len(env.Meta) > 0 && !json.Valid(env.Meta)) {
			t.Fatalf("accepted envelope with payloads %q, %q", env.State, env.Meta)
		}
		if want := envelopeDigest(env.ConfigDigest, env.AtNs, env.Meta, env.State); env.StateDigest != want {
			t.Fatalf("accepted envelope with digest %q, want %q", env.StateDigest, want)
		}
	})
}

// FuzzDumpRoundTrip: whatever EncodeDump accepts, DecodeDump returns
// equal, with the same config digest. The target builds dumps the
// recorder can take — schema in range, events in time order, text in
// UTF-8 (json.Marshal would coerce anything else) — from the fuzzer's
// values; the config digest goes in as given.
func FuzzDumpRoundTrip(f *testing.F) {
	f.Add("cafef00dcafef00d", int64(42), "jank-burst", "janks=3 window=250ms", uint8(3), []byte{0, 1, 2, 3}, "")
	f.Add("cfg", int64(0), "fallback", "<b>", uint8(1), []byte{2, 6}, "to=VSync & back")
	f.Add("", int64(-1), "", "", uint8(2), []byte(nil), "")
	f.Add("d\xff", int64(7), "watchdog", "x\u2028y", uint8(0), []byte{255}, "\xff")
	kinds := []trace.EventKind{trace.FrameStart, trace.Jank, trace.Fallback, trace.FaultOnset}
	f.Fuzz(func(t *testing.T, cfg string, at int64, kind, detail string, schema uint8, evs []byte, evDetail string) {
		if len(evs) > 256 {
			evs = evs[:256]
		}
		d := &Dump{
			SchemaVersion: int(schema)%trace.SchemaVersion + 1,
			Trigger: Trigger{Kind: TriggerKind(strings.ToValidUTF8(kind, "\uFFFD")),
				At: simtime.Time(at), Detail: strings.ToValidUTF8(detail, "\uFFFD")},
		}
		evAt := simtime.Time(at >> 1) // room for the deltas below
		for i, b := range evs {
			evAt += simtime.Time(b)
			e := trace.Event{At: evAt, Kind: kinds[int(b)%len(kinds)], Frame: i - 1,
				Decoupled: b&1 == 1, EdgeSeq: uint64(b), Hz: int(b >> 4)}
			if b&2 != 0 {
				e.Detail = strings.ToValidUTF8(evDetail, "\uFFFD")
			}
			d.Events = append(d.Events, e)
		}
		var buf bytes.Buffer
		if err := EncodeDump(&buf, cfg, d); err != nil {
			return
		}
		got, gotDigest, err := DecodeDump(&buf, cfg)
		if err != nil {
			t.Fatalf("DecodeDump rejected what EncodeDump sealed: %v", err)
		}
		if gotDigest != cfg || !reflect.DeepEqual(got, d) {
			t.Fatalf("round trip: digest %q, want %q; dump %+v, want %+v", gotDigest, cfg, got, d)
		}
	})
}
