package sim

import (
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
)

// telemetryState binds one run to a live metrics registry: instruments are
// registered at wiring time, updated from the same hook sites the trace
// recorder uses, and sampled into the registry's time series at every
// interval boundary of the virtual clock (runTo). Every hot-path access is
// behind a single `s.tel != nil` check, so runs without a registry pay a
// branch and nothing else (BenchmarkSimRun pins the allocation count).
//
// The windowed-FDPS gauge is refreshed at the start of each hardware edge,
// before that edge's jank (if any) is recorded — the same sampling point
// internal/obs reconstructs from the trace, so the two layers agree
// exactly (see obs.TracksFromSnapshot and its equivalence test).
type telemetryState struct {
	reg      *telemetry.Registry
	interval simtime.Duration

	framesStarted   *telemetry.Counter
	framesPresented *telemetry.Counter
	janks           *telemetry.Counter
	edges           *telemetry.Counter
	missedEdges     *telemetry.Counter
	fallbacks       *telemetry.Counter
	staleDropped    *telemetry.Counter

	queueDepth    *telemetry.Gauge
	fdps          *telemetry.Gauge
	fallbackState *telemetry.Gauge
	refreshHz     *telemetry.Gauge
	uiBusy        *telemetry.Gauge
	rsBusy        *telemetry.Gauge
	inflight      *telemetry.Gauge
	healthTrips   *telemetry.Gauge // nil unless the run is supervised
	healthRecov   *telemetry.Gauge

	latency   *telemetry.Histogram
	calibErr  *telemetry.Histogram
	depthDist *telemetry.Histogram

	window *telemetry.WindowRate
}

func newTelemetryState(reg *telemetry.Registry, interval simtime.Duration, hz int, supervised bool) *telemetryState {
	t := &telemetryState{
		reg:      reg,
		interval: interval,
		window:   telemetry.NewWindowRate(telemetry.FDPSWindow),
	}
	t.framesStarted = reg.Counter(telemetry.MetricFramesStarted, "frames entering the pipeline")
	t.framesPresented = reg.Counter(telemetry.MetricFramesPresented, "frames latched for display")
	t.janks = reg.Counter(telemetry.MetricJanks, "repeated-frame edges")
	t.edges = reg.Counter(telemetry.MetricEdges, "hardware refresh edges")
	t.missedEdges = reg.Counter(telemetry.MetricMissedEdges, "refreshes skipped by injected faults")
	t.fallbacks = reg.Counter(telemetry.MetricFallbacks, "supervised trips to the VSync channel")
	t.staleDropped = reg.Counter(telemetry.MetricStaleDropped, "frames discarded by the stale-dropping consumer")

	t.queueDepth = reg.Gauge(telemetry.MetricQueueDepth, "buffers queued awaiting display")
	t.fdps = reg.Gauge(telemetry.MetricFDPSWindow, "frame drops per second over the trailing 500ms, refreshed at each edge")
	t.fallbackState = reg.Gauge(telemetry.MetricFallbackState, "1 while the fallback supervisor holds the VSync channel")
	t.refreshHz = reg.Gauge(telemetry.MetricRefreshHz, "current panel refresh rate")
	t.uiBusy = reg.Gauge(telemetry.MetricUIBusy, "1 while the UI stage is executing at the sample instant")
	t.rsBusy = reg.Gauge(telemetry.MetricRSBusy, "1 while the render-service stage is executing at the sample instant")
	t.inflight = reg.Gauge(telemetry.MetricInflight, "frames dequeued but not yet queued")
	if supervised {
		t.healthTrips = reg.Gauge(telemetry.MetricHealthTrips, "health monitor trip transitions")
		t.healthRecov = reg.Gauge(telemetry.MetricHealthRecoveries, "health monitor recovery transitions")
	}

	t.latency = reg.Histogram(telemetry.MetricFrameLatencyMs, "per-frame rendering latency (§6.3), ms", telemetry.LatencyBucketsMs)
	t.calibErr = reg.Histogram(telemetry.MetricCalibErrMs, "DTV |present − D-Timestamp| per decoupled frame, ms", telemetry.CalibErrBucketsMs)
	t.depthDist = reg.Histogram(telemetry.MetricQueueDepthDist, "queue depth observed at each depth change", telemetry.QueueDepthBuckets)

	t.refreshHz.Set(float64(hz))
	return t
}

// reset re-arms the telemetry binding for another run on the same wiring:
// the registry's instruments and row ring rewind, the FDPS window empties,
// and the refresh-rate gauge is re-primed exactly as newTelemetryState
// does (Registry.Reset zeroes every gauge, including that priming).
func (t *telemetryState) reset(hz int) {
	t.reg.Reset()
	t.window.Reset()
	t.refreshHz.Set(float64(hz))
}

// observeJank feeds one repeated-frame edge into the counter and the
// trailing FDPS window.
//
//dvlint:hotpath runs at every jank edge
func (t *telemetryState) observeJank(now simtime.Time) {
	t.janks.Inc()
	t.window.Observe(now)
}

// runTo runs the engine up to limit. With a registry attached it pauses
// at every sampling boundary on the way and appends that boundary's row
// once every event at or before it has fired, so a row at instant T sees
// every effect of T. The next boundary is the registry's last row plus
// the interval (zero before the first row), so the grid needs no
// scheduling state of its own. A run that stops takes no boundary row (finish
// closes the series), and runTo on a stopped run does nothing.
func (s *System) runTo(limit simtime.Time) {
	if s.engine.Stopped() {
		return
	}
	if t := s.tel; t != nil {
		for {
			var next simtime.Time
			if at, ok := t.reg.LastSampleAt(); ok {
				next = at.Add(t.interval)
			}
			if next > limit {
				break
			}
			s.engine.Run(next)
			if s.engine.Stopped() {
				return
			}
			s.sampleTelemetry(next)
		}
	}
	s.engine.Run(limit)
}

// sampleTelemetry refreshes the sampled-on-read gauges (per-stage pipeline
// occupancy, health transition counts) and appends one time-series row.
//
//dvlint:hotpath runs at every telemetry sampling boundary
func (s *System) sampleTelemetry(now simtime.Time) {
	t := s.tel
	t.uiBusy.Set(boolGauge(!s.producer.UIFree(now)))
	t.rsBusy.Set(boolGauge(!s.producer.RSFree(now)))
	t.inflight.Set(float64(len(s.producer.Inflight())))
	if s.monitor != nil {
		t.healthTrips.Set(float64(s.monitor.Trips()))
		t.healthRecov.Set(float64(s.monitor.Recoveries()))
	}
	t.reg.Sample(now)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
