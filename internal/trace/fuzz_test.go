package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the JSONL trace reader: malformed
// lines, truncated fragments and oversized inputs must come back as errors
// (or parse), never as panics — dvtrace and external tooling hand
// this reader untrusted files.
func FuzzReadJSONL(f *testing.F) {
	rec := NewRecorder()
	rec.Add(Event{At: 0, Kind: HWVSync, Frame: -1, EdgeSeq: 1, Hz: 60})
	rec.Add(Event{At: 100, Kind: FrameStart, Frame: 0, Decoupled: true})
	rec.Add(Event{At: 200, Kind: FrameLatched, Frame: 0, EdgeSeq: 2})
	var good bytes.Buffer
	if err := rec.WriteJSONL(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("")
	f.Add("\n\n\n")
	f.Add(`{"at":1,"kind":"hw-vsync","frame":-1}`)
	f.Add(`{"at":"not a number"}`)
	f.Add("{\"at\":1}\n{\"at\":")
	f.Add(`[1,2,3]`)
	f.Add(strings.Repeat(`{"at":1,"kind":"jank","frame":-1}`+"\n", 64))
	f.Add("\x00\x01\x02")
	f.Fuzz(func(t *testing.T, data string) {
		out, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			return
		}
		// Parsed traces must satisfy the recorder's ordering invariant:
		// re-encoding and re-reading must succeed.
		var buf bytes.Buffer
		if err := out.WriteJSONL(&buf); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		if _, err := ReadJSONL(&buf); err != nil {
			t.Fatalf("re-read of accepted trace failed: %v", err)
		}
	})
}
