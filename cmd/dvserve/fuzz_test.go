package main

import (
	"net/url"
	"testing"

	"dvsync/internal/sim"
)

// FuzzWithQuery feeds arbitrary query strings through the override path
// every endpoint uses (url.ParseQuery, as r.URL.Query does, then
// params.withQuery). It must never panic, accepted parameters must
// satisfy newParams' bounds, and the simulator must accept the config
// they build: that is why runner.serve has no error to return.
func FuzzWithQuery(f *testing.F) {
	def, err := newParams("dvsync", 60, 4, 120, 1, "", 0.5)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"",
		"mode=vsync&hz=120&buffers=3&frames=600&seed=-7",
		"buffers=1099511627776",
		"buffers=65",
		"buffers=64&frames=100000&hz=1000",
		"frames=0",
		"hz=abc",
		"fault=stall&severity=0.9",
		"fault=jitter&severity=NaN",
		"fault=none&severity=0.2",
		"fault=&hz=90",
		"severity=0.5",
		"bogus=1&mod=vsync",
		"mode=dvsync&mode=vsync&seed=9223372036854775807",
		"%zz&hz=60",
		"fault=stall&severity=0&hz=1000&buffers=64&frames=100000",
		"fault=alloc&severity=1&hz=1&buffers=2&frames=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		p, err := def.withQuery(q)
		if err != nil {
			return
		}
		switch {
		case p.mode != "vsync" && p.mode != "dvsync":
			t.Fatalf("accepted mode %q", p.mode)
		case p.hz < 1 || p.hz > 1000:
			t.Fatalf("accepted refresh rate %d", p.hz)
		case p.buffers < 2 || p.buffers > sim.MaxBuffers:
			t.Fatalf("accepted %d buffers", p.buffers)
		case p.frames < 1 || p.frames > 100_000:
			t.Fatalf("accepted %d frames", p.frames)
		case (p.fault == "") != (p.faults == nil):
			t.Fatalf("fault class %q with fault config %v", p.fault, p.faults)
		case p.faults != nil && !(p.severity >= 0 && p.severity <= 1):
			t.Fatalf("accepted severity %v", p.severity)
		}
		if err := sim.Validate(p.config(nil)); err != nil {
			t.Fatalf("accepted %q, which the simulator rejects: %v", raw, err)
		}
	})
}
