package sim

import (
	"math"
	"testing"

	"dvsync/internal/buffer"
	"dvsync/internal/core"
	"dvsync/internal/display"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/ipl"
	"dvsync/internal/ltpo"
	"dvsync/internal/scenarios"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// fleetCellConfig is the fleet-census benchmark's first 600-frame cell at
// seed 5 (spec seed 7+5×1000, replica 0): DemoSpec's pixel5-moderate
// cohort, built as fleet's cell.config builds it.
func fleetCellConfig(mode Mode) Config {
	dev := scenarios.Pixel5
	p := scenarios.BaseProfile("fleet-moderate", dev, scenarios.Moderate, workload.Deterministic)
	return Config{Mode: mode, Panel: dev.Panel(), Buffers: dev.Buffers, Trace: p.Generate(600, 5007)}
}

// extremeCosts holds 0, negative and extreme stage costs under every
// frame class and two out-of-range ones.
func extremeCosts() []workload.Cost {
	return []workload.Cost{
		{UI: 0, RS: 0, Class: workload.Deterministic},
		{UI: -1, RS: -5 * simtime.Millisecond, Class: workload.Interactive},
		{UI: math.MaxInt64, RS: math.MinInt64, Class: workload.Realtime},
		{UI: math.MinInt64, RS: math.MaxInt64, Class: workload.Class(7)},
		{UI: 4 * simtime.Millisecond, RS: 1, Class: workload.Class(-1)},
	}
}

// digestPinCases are the configurations TestConfigDigestPinned holds to
// their digests: every kind of field the digest reads, the trace-cost
// edge cases, and string escapes in the names around the costs.
func digestPinCases() []struct {
	name string
	cfg  Config
} {
	awkward := "q\"b\\l<a&s\u2028x\xffz"
	awkwardPanel := panel60()
	awkwardPanel.Name = awkward
	full := faultedGoldenConfig(ModeDVSync)
	full.Panel.RefreshHz = 120
	full.LTPOPolicy = ltpo.DefaultUIPolicy()
	full.LTPOVelocity = ltpoGoldenConfig().LTPOVelocity
	full.Metrics = telemetry.NewRegistry()
	full.MetricsInterval = 50 * simtime.Millisecond
	cp := goldenProfile()
	floats := Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
		Trace: scripted("floats", 5, 9, 21),
		DTV: core.DTVConfig{CalibrateEvery: 3, PeriodSmoothing: 1e-7,
			RateChangeTolerance: 1e21, MaxAbsErrMs: 0.1},
		Health: health.Config{MaxFDPS: 2.5e-5, MaxCalibErrMs: 123456789.125}}
	floats.Panel.PeriodSkewPPM = -350.5
	return []struct {
		name string
		cfg  Config
	}{
		{"nil-trace", Config{Mode: ModeVSync, Panel: panel60(), Buffers: 3}},
		{"nil-costs", Config{Mode: ModeVSync, Panel: panel60(), Buffers: 3,
			Trace: &workload.Trace{Name: "nil-costs"}}},
		{"empty-costs", Config{Mode: ModeVSync, Panel: panel60(), Buffers: 3,
			Trace: &workload.Trace{Name: "empty", Costs: []workload.Cost{}}}},
		{"fleet-cell-vsync", fleetCellConfig(ModeVSync)},
		{"fleet-cell-dvsync", fleetCellConfig(ModeDVSync)},
		{"faults-ltpo-predictor-metrics-recorder", full},
		{"flight-ring", Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
			Trace: cp.Generate(300, 7), Predictor: ipl.Kalman{},
			Recorder: flight.New(flight.Config{})}},
		{"plain-recorder", Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
			Trace: cp.Generate(300, 7), Recorder: trace.NewRecorder()}},
		{"extreme-costs", Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 5,
			Trace: &workload.Trace{Name: "extreme", Costs: extremeCosts()}}},
		{"escaped-names", Config{Mode: ModeVSync, Panel: awkwardPanel, Buffers: 3,
			Trace: &workload.Trace{Name: awkward + "\"TraceCosts\":null", Costs: extremeCosts()}}},
		{"floats", floats},
		{"jitter-skew-offset", Config{Mode: ModeDVSync,
			Panel: display.Config{Name: "j", RefreshHz: 90, Width: 1, Height: 2,
				JitterStdDev: 80 * simtime.Microsecond, JitterSeed: -42, PeriodSkewPPM: 350},
			Buffers: 4, Trace: cp.Generate(50, 11), AppOffset: 2 * simtime.Millisecond,
			PreRenderLimit: 2, PerFrameOverhead: -1, DisableDVSync: true, DropStaleBuffers: true,
			VSyncPipelineDepth: 3, MaxSimTime: simtime.Second,
			ContentSample: func(*buffer.Frame, simtime.Time) {},
			RuntimeSwitch: func(simtime.Time) bool { return true }}},
	}
}

// digestPins are the SHA-256 digests of digestPinCases, computed with the
// json.Marshal encoder ConfigDigest used before the trace costs were
// streamed. A digest keys flight dumps, dump ids, dvserve's scenario cache and the
// census result cache, so none of these may move without a schema bump.
var digestPins = map[string]string{
	"nil-trace":                              "f84c059c0c5002caddd585a5d57a6e3913386a9e8510ccad86ce3d479fa5fbe8",
	"nil-costs":                              "8c8e44600cabf5aa1c523586bb8418ddf605a945b25f74c54143665f1e17dcfb",
	"empty-costs":                            "908ad91804d636c62296abd91243a91bf51db77e29d04b4e3780fcdcd225cd8f",
	"fleet-cell-vsync":                       "c7878e7e4f027936b5145712c4d81ea832ade6e2072338e03d8b156021d1cdcf",
	"fleet-cell-dvsync":                      "aadf899cc526d9fd945052c1f34adaa1e6384a9485ed4ccefe329827f3551830",
	"faults-ltpo-predictor-metrics-recorder": "4f2c60ed0745b673b76491551481614a0dc048d563adc0719779174c519bca93",
	"flight-ring":                            "f63b68c2236665ae78515067215b6b02c9ef3ad895fc9916e5d0df4715374034",
	"plain-recorder":                         "08a0e97c248247c80f2cb2803b226177b780b717d22f0d0c9c03aaedb4ef2de2",
	"extreme-costs":                          "7d49a98c248c8b425ec8936b5f50d4dafdd1b39ea2e24392f0a0af721e50efb7",
	"escaped-names":                          "f10971bc974e85af9244235ce4f595888192bba74beeedf096dd9b4217461c47",
	"floats":                                 "6bd7a83736bdfb478cf409ae4718cceaea4bc39ec91222700ca1b376c2b9d711",
	"jitter-skew-offset":                     "c678f52b5c946f398ed961c65f27a7c26a120312b462ce66e193d7cb340b834b",
}

func TestConfigDigestPinned(t *testing.T) {
	cases := digestPinCases()
	if len(cases) != len(digestPins) {
		t.Errorf("%d cases, %d pins", len(cases), len(digestPins))
	}
	for _, tc := range cases {
		if got := ConfigDigest(tc.cfg); got != digestPins[tc.name] {
			t.Errorf("%s: digest %s, pinned %s", tc.name, got, digestPins[tc.name])
		}
	}
}
