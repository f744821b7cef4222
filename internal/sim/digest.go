package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"dvsync/internal/core"
	"dvsync/internal/fault"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

// cfgDigestView mirrors Config's deterministic fields for digesting.
// Closures and interfaces cannot be serialised, so they contribute
// presence booleans: a run with a predictor (or recorder, registry, LTPO
// policy…) attached writes different outputs than one without, so a dump
// written under one presence never names a run under the other.
type cfgDigestView struct {
	Mode               Mode
	PanelName          string
	RefreshHz          int
	Width, Height      int
	JitterStdDev       simtime.Duration
	JitterSeed         int64
	PeriodSkewPPM      float64
	Buffers            int
	PreRenderLimit     int
	TraceName          string
	TraceCosts         []workload.Cost
	AppOffset          simtime.Duration
	DTV                core.DTVConfig
	HasPredictor       bool
	PerFrameOverhead   simtime.Duration
	HasContentSample   bool
	DisableDVSync      bool
	HasRuntimeSwitch   bool
	DropStaleBuffers   bool
	VSyncPipelineDepth int
	MaxSimTime         simtime.Duration
	HasRecorder        bool
	// FlightRecorder carries the flight ring's trigger parameters when the
	// attached sink is a flight recorder, empty otherwise. omitempty keeps
	// every pre-flight digest byte-identical.
	FlightRecorder   string `json:",omitempty"`
	HasMetrics       bool
	MetricsInterval  simtime.Duration
	HasLTPO          bool
	Faults           *fault.Config
	FPEOverloadAfter int
	FPERecoverAfter  int
	EnableFallback   bool
	Health           health.Config
}

// digestView builds the view ConfigDigest hashes from the normalized
// config, trace costs included.
func digestView(cfg Config) cfgDigestView {
	cfg = normalized(cfg)
	v := cfgDigestView{
		Mode:               cfg.Mode,
		PanelName:          cfg.Panel.Name,
		RefreshHz:          cfg.Panel.RefreshHz,
		Width:              cfg.Panel.Width,
		Height:             cfg.Panel.Height,
		JitterStdDev:       cfg.Panel.JitterStdDev,
		JitterSeed:         cfg.Panel.JitterSeed,
		PeriodSkewPPM:      cfg.Panel.PeriodSkewPPM,
		Buffers:            cfg.Buffers,
		PreRenderLimit:     cfg.PreRenderLimit,
		AppOffset:          cfg.AppOffset,
		DTV:                cfg.DTV,
		HasPredictor:       cfg.Predictor != nil,
		PerFrameOverhead:   cfg.PerFrameOverhead,
		HasContentSample:   cfg.ContentSample != nil,
		DisableDVSync:      cfg.DisableDVSync,
		HasRuntimeSwitch:   cfg.RuntimeSwitch != nil,
		DropStaleBuffers:   cfg.DropStaleBuffers,
		VSyncPipelineDepth: cfg.VSyncPipelineDepth,
		MaxSimTime:         cfg.MaxSimTime,
		HasRecorder:        cfg.Recorder != nil,
		HasMetrics:         cfg.Metrics != nil,
		MetricsInterval:    cfg.MetricsInterval,
		HasLTPO:            cfg.LTPOPolicy != nil,
		Faults:             cfg.Faults,
		FPEOverloadAfter:   cfg.FPEOverloadAfter,
		FPERecoverAfter:    cfg.FPERecoverAfter,
		EnableFallback:     cfg.EnableFallback,
		Health:             cfg.Health,
	}
	if r, ok := cfg.Recorder.(*flight.Ring); ok {
		fc := r.Config()
		v.FlightRecorder = fmt.Sprintf("cap=%d burst=%d window=%v cooldown=%v max=%d",
			fc.Capacity, fc.JankBurst, fc.JankWindow, fc.Cooldown, fc.MaxDumps)
	}
	if cfg.Trace != nil {
		v.TraceName = cfg.Trace.Name
		v.TraceCosts = cfg.Trace.Costs
	}
	return v
}

// traceCostsKey is the JSON key the streamed trace costs follow.
var traceCostsKey = []byte(`"TraceCosts":`)

// ConfigDigest fingerprints a configuration for flight dumps and caches: two configs with the same digest wire identical
// simulations (up to the behaviour of attached closures, which contribute
// presence only — see cfgDigestView). The digest is computed over the
// normalized config, so a digest taken before New and one taken after
// agree.
//
// The digest is SHA-256 over json.Marshal of the view, but the trace
// costs, nearly all of those bytes, never pass through encoding/json:
// the view is marshalled with TraceCosts nil, and the costs are encoded
// as encoding/json encodes them and hashed where that null stands, so
// the hashed stream is byte for byte the marshalled full view.
func ConfigDigest(cfg Config) string {
	v := digestView(cfg)
	costs := v.TraceCosts
	v.TraceCosts = nil
	b, err := json.Marshal(&v)
	if err != nil {
		panic(fmt.Sprintf("sim: config digest: %v", err))
	}
	h := sha256.New()
	if costs == nil {
		h.Write(b)
	} else {
		// encoding/json escapes every '"' inside a string (PanelName,
		// TraceName, FlightRecorder), so the key cannot occur inside one
		// and its first occurrence is the field.
		i := bytes.Index(b, traceCostsKey) + len(traceCostsKey)
		h.Write(b[:i])
		// The costs go through a fixed buffer, so a digest allocates the
		// same at any trace length. It stays on the stack because h's
		// Write is devirtualized here; handing it to an io.Writer would
		// move it to the heap.
		var buf [4096]byte
		c := append(buf[:0], '[')
		for k, x := range costs {
			if len(c) > len(buf)-maxCostJSON {
				h.Write(c)
				c = c[:0]
			}
			if k > 0 {
				c = append(c, ',')
			}
			c = appendCost(c, x)
		}
		h.Write(append(c, ']'))
		h.Write(b[i+len("null"):])
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// maxCostJSON bounds one encoded cost with its separator and the
// closing bracket: ,{"UI":…,"RS":…,"Class":…}] with three 20-byte int64s.
const maxCostJSON = len(`,{"UI":,"RS":,"Class":}]`) + 3*20

// appendCost appends c as encoding/json encodes a workload.Cost: every
// field a base-10 int64.
func appendCost(b []byte, c workload.Cost) []byte {
	b = append(b, `{"UI":`...)
	b = strconv.AppendInt(b, int64(c.UI), 10)
	b = append(b, `,"RS":`...)
	b = strconv.AppendInt(b, int64(c.RS), 10)
	b = append(b, `,"Class":`...)
	b = strconv.AppendInt(b, int64(c.Class), 10)
	return append(b, '}')
}
