package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"dvsync/internal/sim"
)

// FuzzSpecValidate feeds arbitrary bytes through the decode-then-Validate
// path POST /fleet uses. Validate must never panic, and a spec it accepts
// must expand to a bounded grid: at most MaxCells cells, each with a
// buffer count in [2, sim.MaxBuffers] and at most MaxFrames frames, and
// at most MaxCensusFrames frames over all cells.
func FuzzSpecValidate(f *testing.F) {
	demo, err := json.Marshal(DemoSpec(true))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(demo),
		`{"cohorts":[{}]}`,
		`{"seed":-9,"frames":100000,"replicas":2,"cohorts":[{"device":"mate60","hz":[1,1000],"modes":["vsync"],"buffers":64,"workload":"mixed"}]}`,
		`{"cohorts":[{"device":"pixel5","buffers":1099511627776}]}`,
		`{"cohorts":[{"buffers":-3,"frames":-1,"replicas":-1}]}`,
		`{"replicas":4096,"cohorts":[{"hz":[30,48,60,72,90,120,144,165,240,360]}]}`,
		`{"replicas":4096,"cohorts":[{"hz":[60,90,120,144,165,240,360,480]}]}`,
		`{"cohorts":[{"fault":"stall","severity":0.8},{"fault":"none"},{"name":"x","fault":"jitter","severity":1e308}]}`,
		`{"cohorts":[{"name":"a"},{"name":"a"}]}`,
		`{"cohorts":[{"modes":["dvsync","dvsync","vsync"],"hz":[0]}]}`,
		`{"frames":100000,"replicas":4096,"cohorts":[{"hz":[60,61,62,63,64,65,66,67]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec Spec
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		cohorts, err := spec.resolve()
		if err != nil {
			t.Fatalf("Validate accepted a spec resolve rejects: %v", err)
		}
		n, frames := 0, 0
		for _, rc := range cohorts {
			for _, c := range rc.cells {
				if c.buffers < 2 || c.buffers > sim.MaxBuffers {
					t.Fatalf("cohort %q: accepted %d buffers", rc.name, c.buffers)
				}
				if c.frames < 1 || c.frames > MaxFrames {
					t.Fatalf("cohort %q: accepted %d frames", rc.name, c.frames)
				}
				frames += c.frames
			}
			n += len(rc.cells)
		}
		if n > MaxCells {
			t.Fatalf("accepted spec expands to %d cells, bound %d", n, MaxCells)
		}
		if frames > MaxCensusFrames {
			t.Fatalf("accepted spec expands to %d frames, bound %d", frames, MaxCensusFrames)
		}
	})
}
