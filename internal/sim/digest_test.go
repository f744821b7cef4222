package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dvsync/internal/core"
	"dvsync/internal/display"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

// referenceDigest is ConfigDigest as it was before the trace costs were
// streamed: SHA-256 over json.Marshal of the whole view, costs included.
// The streamed digest is held to it byte for byte.
func referenceDigest(cfg Config) (string, error) {
	v := digestView(cfg)
	b, err := json.Marshal(&v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// tryDigest is ConfigDigest with a panic returned as an error.
func tryDigest(cfg Config) (digest string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return ConfigDigest(cfg), nil
}

// checkDigest holds ConfigDigest to the reference: equal digests where
// json.Marshal encodes the view, a panic where it does not, and never a
// panic on a config Validate accepts.
func checkDigest(t *testing.T, cfg Config) {
	t.Helper()
	want, wantErr := referenceDigest(cfg)
	got, err := tryDigest(cfg)
	switch {
	case err != nil && Validate(cfg) == nil:
		t.Fatalf("Validate accepts a config ConfigDigest panics on: %v", err)
	case wantErr != nil && err == nil:
		t.Fatalf("digest %s of a view json.Marshal rejects (%v)", got, wantErr)
	case wantErr == nil && err != nil:
		t.Fatalf("ConfigDigest panics (%v) on a view json.Marshal encodes", err)
	case got != want:
		t.Fatalf("digest %s, reference %s", got, want)
	}
}

// costBytes is the fuzz encoding of costs that digestFuzzConfig decodes.
func costBytes(costs []workload.Cost) []byte {
	b := make([]byte, 0, 24*len(costs))
	for _, c := range costs {
		b = binary.LittleEndian.AppendUint64(b, uint64(c.UI))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.RS))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Class))
	}
	return b
}

// digestFuzzConfig builds the config FuzzConfigDigest and
// TestConfigDigestMatchesReference digest. flags picks D-VSync (bit 0), a
// flight ring (bit 1), no trace (bit 2), nil rather than empty costs
// (bit 3) and fallback supervision (bit 4). floats fill every float field
// the digest reads: the panel's period skew, the three DTV floats and the
// two health thresholds. costs decodes 24 bytes a frame (UI, RS and Class
// as little-endian int64s), at most 256 frames.
func digestFuzzConfig(flags, buffers uint8, floats [6]float64, panelName, traceName string, costs []byte) Config {
	cfg := Config{
		Mode: Mode(flags & 1),
		Panel: display.Config{Name: panelName, RefreshHz: 60, Width: 1080, Height: 2340,
			PeriodSkewPPM: floats[0]},
		Buffers: int(buffers % (MaxBuffers + 2)),
		DTV: core.DTVConfig{CalibrateEvery: 4, PeriodSmoothing: floats[1],
			RateChangeTolerance: floats[2], MaxAbsErrMs: floats[3]},
		EnableFallback: flags&16 != 0,
		Health:         health.Config{MaxFDPS: floats[4], MaxCalibErrMs: floats[5]},
	}
	if flags&2 != 0 {
		cfg.Recorder = flight.New(flight.Config{})
	}
	if flags&4 != 0 {
		return cfg
	}
	tr := &workload.Trace{Name: traceName}
	if flags&8 == 0 {
		tr.Costs = []workload.Cost{}
	}
	for ; len(costs) >= 24 && len(tr.Costs) < 256; costs = costs[24:] {
		tr.Costs = append(tr.Costs, workload.Cost{
			UI:    simtime.Duration(binary.LittleEndian.Uint64(costs)),
			RS:    simtime.Duration(binary.LittleEndian.Uint64(costs[8:])),
			Class: workload.Class(binary.LittleEndian.Uint64(costs[16:])),
		})
	}
	cfg.Trace = tr
	return cfg
}

// awkwardNames need every kind of JSON string escape, and one spells the
// key the costs are spliced after.
var awkwardNames = []string{"", "fleet-moderate", `q"b\l`, "<a&b>", "s\u2028p\u2029",
	"bad\xffutf8\xc0", "\x00\x1f\t\n", `"TraceCosts":null`, `x","TraceCosts":[`, "é😀"}

// TestConfigDigestMatchesReference holds the streamed digest to the
// json.Marshal reference on every pinned case and on seeded configs whose
// costs span every int64 magnitude, whose lengths cross the stack
// buffer's flush boundary, and whose floats include the non-finite
// values Validate must reject.
func TestConfigDigestMatchesReference(t *testing.T) {
	for _, tc := range digestPinCases() {
		t.Run(tc.name, func(t *testing.T) { checkDigest(t, tc.cfg) })
	}
	floats := []float64{0, 0.25, -1e-9, 1e21, 5e-324, math.MaxFloat64, math.Copysign(0, -1),
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		var fs [6]float64
		for j := range fs {
			// Mostly finite, so most configs pass Validate.
			if rng.Intn(8) == 0 {
				fs[j] = floats[rng.Intn(len(floats))]
			} else {
				fs[j] = float64(rng.Intn(1000)) / 8
			}
		}
		costs := make([]workload.Cost, rng.Intn(257))
		for k := range costs {
			mag := func() simtime.Duration {
				v := simtime.Duration(rng.Int63() >> rng.Intn(64))
				if rng.Intn(4) == 0 {
					v = -v - simtime.Duration(rng.Intn(2)) // reaches MinInt64
				}
				return v
			}
			costs[k] = workload.Cost{UI: mag(), RS: mag(), Class: workload.Class(mag())}
		}
		cfg := digestFuzzConfig(uint8(rng.Intn(32)), uint8(rng.Intn(8)), fs,
			awkwardNames[rng.Intn(len(awkwardNames))], awkwardNames[rng.Intn(len(awkwardNames))],
			costBytes(costs))
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkDigest(t, cfg) })
	}
}

// FuzzConfigDigest holds the streamed digest to the json.Marshal reference
// on any costs (any int64 in every field), names, nil or empty costs,
// mode, buffers, ring and floats, and checks that Validate never accepts
// a config ConfigDigest cannot encode.
func FuzzConfigDigest(f *testing.F) {
	fleet := fleetCellConfig(ModeDVSync).Trace
	f.Add(uint8(1), uint8(4), 0.0, 0.25, 0.3, 0.0, 6.0, 12.0, "pixel5", fleet.Name, costBytes(fleet.Costs))
	f.Add(uint8(0), uint8(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "test", "", []byte{})
	f.Add(uint8(8), uint8(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "test", "nil", []byte{})
	f.Add(uint8(4), uint8(2), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, "", "", []byte{})
	f.Add(uint8(3), uint8(5), 350.0, 1e-7, 1e21, 8.0, 2.5e-5, 0.0, `q"b\l<a&s`+"\u2028\xff",
		`"TraceCosts":null`, costBytes(extremeCosts()))
	f.Add(uint8(0), uint8(4), math.NaN(), 0.25, 0.3, 0.0, 0.0, 0.0, "skew", "nan", costBytes(extremeCosts()))
	f.Add(uint8(17), uint8(4), 0.0, 0.25, 0.3, 0.0, math.NaN(), 0.0, "fdps", "nan", costBytes(extremeCosts()))
	f.Add(uint8(0), uint8(4), 0.0, math.Inf(1), 0.3, math.Inf(-1), 0.0, math.Inf(1), "dtv", "inf",
		costBytes(extremeCosts()))
	f.Fuzz(func(t *testing.T, flags, buffers uint8, skew, smoothing, tolerance, maxErr, maxFDPS, maxCalib float64,
		panelName, traceName string, costs []byte) {
		checkDigest(t, digestFuzzConfig(flags, buffers,
			[6]float64{skew, smoothing, tolerance, maxErr, maxFDPS, maxCalib}, panelName, traceName, costs))
	})
}

// TestConfigDigestAllocsFlat: the trace costs stream through a fixed
// buffer, so the bytes a digest allocates do not grow with the trace.
// json.Marshal of the whole view allocated ~25 KB a digest at 600 frames
// and about ten times that at 6 000.
func TestConfigDigestAllocsFlat(t *testing.T) {
	cfg := fleetCellConfig(ModeDVSync)
	cfg.Trace = &workload.Trace{Name: cfg.Trace.Name, Costs: slices.Repeat(cfg.Trace.Costs, 10)}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			ConfigDigest(cfg)
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 4<<10 {
		t.Errorf("a 6 000-frame digest allocates %d B, want under 4 KiB", got)
	}
}
