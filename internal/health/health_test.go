package health

import (
	"math"
	"strings"
	"testing"

	"dvsync/internal/simtime"
)

func ms(x float64) simtime.Time { return simtime.Time(simtime.FromMillis(x)) }

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"valid", Config{MaxFDPS: 5}, ""},
		{"zero fallback threshold", Config{MaxFDPS: 0}, "threshold"},
		{"negative fallback threshold", Config{MaxFDPS: -1}, "threshold"},
		{"NaN fallback threshold", Config{MaxFDPS: math.NaN()}, "threshold"},
		{"negative calib bound", Config{MaxFDPS: 5, MaxCalibErrMs: -1}, "calibration"},
		{"NaN calib bound", Config{MaxFDPS: 5, MaxCalibErrMs: math.NaN()}, "calibration"},
		{"negative window", Config{MaxFDPS: 5, Window: -1}, "window"},
		{"negative stall timeout", Config{MaxFDPS: 5, StallTimeout: -1}, "stall"},
		{"negative hysteresis", Config{MaxFDPS: 5, RecoverAfter: -1}, "hysteresis"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

func TestTripsOnJankBurst(t *testing.T) {
	m := NewMonitor(Config{Window: simtime.FromMillis(500), MaxFDPS: 5})
	// 2 janks in 500 ms is 4 FDPS: healthy.
	m.ObserveJank(ms(600))
	m.ObserveJank(ms(800))
	if m.Evaluate(ms(1000), true) {
		t.Fatalf("tripped at %v FDPS below threshold", m.WindowFDPS(ms(1000)))
	}
	// A third jank pushes the window to 6 FDPS.
	m.ObserveJank(ms(950))
	if !m.Evaluate(ms(1000), true) {
		t.Fatal("did not trip above FDPS threshold")
	}
	if m.LastReason() != ReasonFDPS {
		t.Fatalf("reason = %v, want fdps", m.LastReason())
	}
	if m.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", m.Trips())
	}
}

func TestJanksAgeOutOfWindow(t *testing.T) {
	m := NewMonitor(Config{Window: simtime.FromMillis(500), MaxFDPS: 5})
	for i := 0; i < 10; i++ {
		m.ObserveJank(ms(1000 + float64(i)*10))
	}
	if got := m.WindowFDPS(ms(2000)); got != 0 {
		t.Fatalf("windowed FDPS after aging = %v, want 0", got)
	}
}

func TestTripsOnCalibrationError(t *testing.T) {
	m := NewMonitor(Config{Window: simtime.FromMillis(500), MaxFDPS: 100, MaxCalibErrMs: 4})
	m.ObserveCalibError(ms(900), 2)
	if m.Evaluate(ms(1000), true) {
		t.Fatal("tripped below calibration bound")
	}
	m.ObserveCalibError(ms(950), 20)
	if !m.Evaluate(ms(1000), true) {
		t.Fatal("did not trip above calibration bound")
	}
	if m.LastReason() != ReasonCalibration {
		t.Fatalf("reason = %v, want calibration", m.LastReason())
	}
}

func TestTripsOnStallOnlyWhenBusy(t *testing.T) {
	m := NewMonitor(Config{MaxFDPS: 100, StallTimeout: simtime.FromMillis(100)})
	m.ObserveProgress(ms(500))
	if m.Evaluate(ms(1000), false) {
		t.Fatal("idle pipeline reported stalled")
	}
	if !m.Evaluate(ms(1000), true) {
		t.Fatal("busy pipeline with no progress did not trip")
	}
	if m.LastReason() != ReasonStall {
		t.Fatalf("reason = %v, want stall", m.LastReason())
	}
}

func TestRecoveryHysteresis(t *testing.T) {
	m := NewMonitor(Config{
		Window:       simtime.FromMillis(200),
		MaxFDPS:      5,
		RecoverAfter: simtime.FromMillis(300),
	})
	m.ObserveJank(ms(1000))
	m.ObserveJank(ms(1010))
	m.ObserveJank(ms(1020))
	if !m.Evaluate(ms(1030), true) {
		t.Fatal("did not trip")
	}
	// Janks age out by 1300 but hysteresis holds the trip until a full
	// RecoverAfter of clean evaluations has elapsed.
	if !m.Evaluate(ms(1300), true) {
		t.Fatal("recovered before hysteresis")
	}
	if !m.Evaluate(ms(1500), true) {
		t.Fatal("recovered 200 ms into a 300 ms hysteresis")
	}
	if m.Evaluate(ms(1650), true) {
		t.Fatal("did not recover after hysteresis elapsed")
	}
	if m.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries())
	}
	if m.LastReason() != ReasonNone {
		t.Fatalf("reason after recovery = %v, want none", m.LastReason())
	}
}

func TestHysteresisRestartsOnNewViolation(t *testing.T) {
	m := NewMonitor(Config{
		Window:       simtime.FromMillis(100),
		MaxFDPS:      5,
		RecoverAfter: simtime.FromMillis(300),
	})
	m.ObserveJank(ms(1000))
	if !m.Evaluate(ms(1000), true) {
		t.Fatal("did not trip (1 jank in a 100 ms window is 10 FDPS)")
	}
	// Clean at 1200, violated again at 1250: the healthy clock restarts.
	if !m.Evaluate(ms(1200), true) {
		t.Fatal("recovered early")
	}
	m.ObserveJank(ms(1250))
	if !m.Evaluate(ms(1250), true) {
		t.Fatal("re-violation ignored")
	}
	// Healthy again from 1400; recovery needs a full 300 ms from there.
	if !m.Evaluate(ms(1400), true) {
		t.Fatal("recovered immediately after re-violation")
	}
	if m.Evaluate(ms(1400+310), true) {
		t.Fatal("did not recover after restarted hysteresis window")
	}
	if m.Trips() != 1 {
		t.Fatalf("trips = %d, want 1 (re-violation while tripped is not a new trip)", m.Trips())
	}
}

func TestReasonString(t *testing.T) {
	cases := []struct {
		r    Reason
		want string
	}{
		{ReasonNone, "none"}, {ReasonFDPS, "fdps"},
		{ReasonCalibration, "calibration"}, {ReasonStall, "stall"},
		{Reason(99), "reason(99)"},
	}
	for _, tc := range cases {
		if got := tc.r.String(); got != tc.want {
			t.Fatalf("Reason(%d).String() = %q, want %q", int(tc.r), got, tc.want)
		}
	}
}

// TestWatchdogEdgeCases is the table-driven pin of the window-boundary and
// hysteresis semantics the telemetry sampler leans on: the degenerate
// window at t=0, the inclusive window cut, the start-truncated rate, the
// stall check before any progress (a regression: a pipeline wedged before
// its first buffer ever queued used to be invisible), and the exact
// trip/untrip sequence when a recovered monitor re-trips inside the same
// window span.
func TestWatchdogEdgeCases(t *testing.T) {
	type op struct {
		kind        string // "jank" | "progress" | "calib" | "eval"
		atMs        float64
		errMs       float64 // calib only
		busy        bool    // eval only
		wantTripped bool    // eval only
		wantReason  Reason  // eval only, checked when checkReason
		checkReason bool
	}
	cases := []struct {
		name                      string
		cfg                       Config
		ops                       []op
		wantTrips, wantRecoveries int
	}{
		{
			name: "t0 degenerate window cannot trip",
			cfg:  Config{MaxFDPS: 1},
			ops: []op{
				{kind: "jank", atMs: 0},
				{kind: "eval", atMs: 0, busy: true, wantTripped: false},
			},
		},
		{
			name: "jank exactly on the window cut still counts",
			cfg:  Config{Window: simtime.FromMillis(500), MaxFDPS: 5},
			ops: []op{
				{kind: "jank", atMs: 500},
				{kind: "jank", atMs: 700},
				{kind: "jank", atMs: 900},
				// cut = 1000−500 = 500 inclusive: 3 janks / 0.5 s = 6 FDPS.
				{kind: "eval", atMs: 1000, busy: true, wantTripped: true,
					wantReason: ReasonFDPS, checkReason: true},
			},
			wantTrips: 1,
		},
		{
			name: "jank just past the cut slides out",
			cfg:  Config{Window: simtime.FromMillis(500), MaxFDPS: 5},
			ops: []op{
				{kind: "jank", atMs: 500},
				{kind: "jank", atMs: 700},
				{kind: "jank", atMs: 900},
				// 1 µs later the t=500 jank is outside: 4 FDPS, clean.
				{kind: "eval", atMs: 1000.001, busy: true, wantTripped: false},
			},
		},
		{
			name: "start-truncated window scales the rate up",
			cfg:  Config{Window: simtime.FromMillis(500), MaxFDPS: 5},
			ops: []op{
				{kind: "jank", atMs: 50},
				// Window truncated to 100 ms: 1 jank / 0.1 s = 10 FDPS.
				{kind: "eval", atMs: 100, busy: true, wantTripped: true,
					wantReason: ReasonFDPS, checkReason: true},
			},
			wantTrips: 1,
		},
		{
			name: "stall before any progress trips from watch start",
			cfg:  Config{MaxFDPS: 100, StallTimeout: simtime.FromMillis(300)},
			ops: []op{
				{kind: "eval", atMs: 0, busy: true, wantTripped: false},
				{kind: "eval", atMs: 200, busy: true, wantTripped: false},
				{kind: "eval", atMs: 400, busy: true, wantTripped: true,
					wantReason: ReasonStall, checkReason: true},
			},
			wantTrips: 1,
		},
		{
			name: "idle pipeline never counts as stalled",
			cfg:  Config{MaxFDPS: 100, StallTimeout: simtime.FromMillis(300)},
			ops: []op{
				{kind: "eval", atMs: 0, busy: false, wantTripped: false},
				{kind: "eval", atMs: 5000, busy: false, wantTripped: false},
			},
		},
		{
			name: "progress resets the stall reference",
			cfg:  Config{MaxFDPS: 100, StallTimeout: simtime.FromMillis(300)},
			ops: []op{
				{kind: "eval", atMs: 0, busy: true, wantTripped: false},
				{kind: "progress", atMs: 350},
				{kind: "eval", atMs: 400, busy: true, wantTripped: false},
				{kind: "eval", atMs: 700, busy: true, wantTripped: true,
					wantReason: ReasonStall, checkReason: true},
			},
			wantTrips: 1,
		},
		{
			name: "re-trip in the same window span after recovery",
			cfg: Config{Window: simtime.FromMillis(500), MaxFDPS: 5,
				RecoverAfter: simtime.FromMillis(100)},
			ops: []op{
				{kind: "jank", atMs: 600},
				{kind: "jank", atMs: 800},
				{kind: "jank", atMs: 950},
				{kind: "eval", atMs: 1000, busy: true, wantTripped: true,
					wantReason: ReasonFDPS, checkReason: true},
				// Janks aged out: clean, but hysteresis holds the trip.
				{kind: "eval", atMs: 1500, busy: true, wantTripped: true},
				// Clean for RecoverAfter: recover.
				{kind: "eval", atMs: 1600, busy: true, wantTripped: false,
					wantReason: ReasonNone, checkReason: true},
				// A fresh burst inside the same 500 ms span re-trips
				// immediately — trips have no hysteresis, only recoveries.
				{kind: "jank", atMs: 1610},
				{kind: "jank", atMs: 1620},
				{kind: "jank", atMs: 1630},
				{kind: "eval", atMs: 1650, busy: true, wantTripped: true,
					wantReason: ReasonFDPS, checkReason: true},
			},
			wantTrips:      2,
			wantRecoveries: 1,
		},
		{
			name: "run-end evaluation far past last activity recovers",
			cfg: Config{Window: simtime.FromMillis(500), MaxFDPS: 5,
				RecoverAfter: simtime.FromMillis(1000)},
			ops: []op{
				{kind: "jank", atMs: 600},
				{kind: "jank", atMs: 700},
				{kind: "jank", atMs: 800},
				{kind: "eval", atMs: 900, busy: true, wantTripped: true},
				{kind: "eval", atMs: 5000, busy: false, wantTripped: true},
				{kind: "eval", atMs: 6001, busy: false, wantTripped: false},
			},
			wantTrips:      1,
			wantRecoveries: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor(tc.cfg)
			for i, o := range tc.ops {
				switch o.kind {
				case "jank":
					m.ObserveJank(ms(o.atMs))
				case "progress":
					m.ObserveProgress(ms(o.atMs))
				case "calib":
					m.ObserveCalibError(ms(o.atMs), o.errMs)
				case "eval":
					got := m.Evaluate(ms(o.atMs), o.busy)
					if got != o.wantTripped {
						t.Fatalf("op %d: Evaluate(%v) = %v, want %v",
							i, o.atMs, got, o.wantTripped)
					}
					if o.checkReason && m.LastReason() != o.wantReason {
						t.Fatalf("op %d: reason %v, want %v", i, m.LastReason(), o.wantReason)
					}
				default:
					t.Fatalf("bad op kind %q", o.kind)
				}
			}
			if m.Trips() != tc.wantTrips {
				t.Errorf("trips = %d, want %d", m.Trips(), tc.wantTrips)
			}
			if m.Recoveries() != tc.wantRecoveries {
				t.Errorf("recoveries = %d, want %d", m.Recoveries(), tc.wantRecoveries)
			}
		})
	}
}
