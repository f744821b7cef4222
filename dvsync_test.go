package dvsync

import (
	"strings"
	"testing"
)

func benchmarkProfile() Profile {
	return Profile{
		Name: "facade-test", ShortMeanMs: 6.5, ShortSigmaMs: 2.2,
		LongRatio: 0.05, LongScaleMs: 25, LongAlpha: 2.3,
		Burstiness: 0.2, UIShare: 0.35,
	}
}

// TestTryRunErrors covers the panic-audit conversions: config and profile
// mistakes surface as error values through the Try entry points, while the
// panicking convenience paths are unchanged for internal callers.
func TestTryRunErrors(t *testing.T) {
	p := benchmarkProfile()
	tr := p.Generate(50, 7)

	bad := []struct {
		name string
		cfg  Config
	}{
		{"empty trace", Config{Mode: VSync, Panel: Pixel5.Panel(), Buffers: 3}},
		{"too few buffers", Config{Mode: VSync, Panel: Pixel5.Panel(), Buffers: 1, Trace: tr}},
		{"too many buffers", Config{Mode: VSync, Panel: Pixel5.Panel(), Buffers: 65, Trace: tr}}, // one past sim.MaxBuffers
		{"no refresh rate", Config{Mode: VSync, Buffers: 3, Trace: tr}},
		{"negative app offset", Config{Mode: VSync, Panel: Pixel5.Panel(), Buffers: 3,
			Trace: tr, AppOffset: -FromMillis(1)}},
		{"LTPO without velocity", Config{Mode: DVSync, Panel: Pixel5.Panel(), Buffers: 4,
			Trace: tr, LTPOPolicy: DefaultLTPOPolicy()}},
	}
	for _, c := range bad {
		if _, err := TryRun(c.cfg); err == nil {
			t.Errorf("%s: TryRun accepted an invalid config", c.name)
		}
		if err := ValidateConfig(c.cfg); err == nil {
			t.Errorf("%s: ValidateConfig accepted an invalid config", c.name)
		}
	}

	r, err := TryRun(Config{Mode: DVSync, Panel: Pixel5.Panel(), Buffers: 4, Trace: tr})
	if err != nil {
		t.Fatalf("TryRun rejected a valid config: %v", err)
	}
	if !r.Completed {
		t.Fatal("TryRun run did not complete")
	}

	invalid := benchmarkProfile()
	invalid.UIShare = 2
	if _, err := invalid.TryGenerate(10, 1); err == nil {
		t.Error("TryGenerate accepted an invalid profile")
	}
	if got, err := p.TryGenerate(10, 1); err != nil || got.Len() != 10 {
		t.Errorf("TryGenerate(10) = %v frames, err %v", got.Len(), err)
	}
}

func TestCompare(t *testing.T) {
	p := benchmarkProfile()
	tr := p.Generate(800, 42)
	v, d := Compare(tr, Pixel5.Panel(), 3, 4)
	if v.Mode != VSync || d.Mode != DVSync {
		t.Fatal("modes wrong")
	}
	if !v.Completed || !d.Completed {
		t.Fatal("runs did not complete")
	}
	if d.FDPS() >= v.FDPS() {
		t.Errorf("D-VSync FDPS %v should beat VSync %v", d.FDPS(), v.FDPS())
	}
	if d.LatencySummary().Mean >= v.LatencySummary().Mean {
		t.Error("D-VSync latency should beat VSync")
	}
}

func TestRunWithRecorder(t *testing.T) {
	p := benchmarkProfile()
	rec := NewRecorder()
	r := Run(Config{
		Mode: DVSync, Panel: Pixel5.Panel(), Buffers: 4,
		Trace: p.Generate(120, 1), Recorder: rec,
	})
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
	var b strings.Builder
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "frame-present") != len(r.Presented) {
		t.Error("present fences missing from trace")
	}
}

func TestDeterminism(t *testing.T) {
	p := benchmarkProfile()
	tr := p.Generate(500, 9)
	a := Run(Config{Mode: DVSync, Panel: Mate60Pro.Panel(), Buffers: 4, Trace: tr})
	b := Run(Config{Mode: DVSync, Panel: Mate60Pro.Panel(), Buffers: 4, Trace: tr})
	if a.FDPS() != b.FDPS() || len(a.Janks) != len(b.Janks) {
		t.Error("identical configs must reproduce identical runs")
	}
	if len(a.LatencyMs) != len(b.LatencyMs) {
		t.Fatal("latency samples differ")
	}
	for i := range a.LatencyMs {
		if a.LatencyMs[i] != b.LatencyMs[i] {
			t.Fatal("latency samples differ")
		}
	}
}

func TestCatalogAccessors(t *testing.T) {
	if len(Devices()) != 3 || len(Apps()) != 25 || len(UseCases()) != 75 ||
		len(Games()) != 15 || len(UXTasks()) != 8 {
		t.Error("catalog sizes wrong")
	}
	if len(Experiments()) < 15 {
		t.Errorf("experiments = %d", len(Experiments()))
	}
	if _, ok := FindExperiment("fig15"); !ok {
		t.Error("FindExperiment failed")
	}
}

func TestAnimationSampling(t *testing.T) {
	a := &Animation{
		Name: "open", Curve: EaseInOutCurve{},
		Start: 0, Duration: FromMillis(300), From: 0, To: 100,
	}
	if a.SampleAt(0) != 0 {
		t.Error("animation start wrong")
	}
	if a.SampleAt(Time(FromMillis(300))) != 100 {
		t.Error("animation end wrong")
	}
}

func TestLTPOFacade(t *testing.T) {
	policy := DefaultLTPOPolicy()
	if policy.DesiredHz(5000) != 120 || policy.DesiredHz(0) != 60 {
		t.Error("default policy wrong")
	}
	custom := NewLTPOPolicy([]RateStep{{MinVelocity: 0, Hz: 30}, {MinVelocity: 100, Hz: 60}})
	if custom.DesiredHz(50) != 30 || custom.DesiredHz(200) != 60 {
		t.Error("custom policy wrong")
	}
}

// TestLTPOIntegration runs a decelerating fling under D-VSync with variable
// refresh and verifies the §5.3 drain rule end to end: no frame rendered
// for rate X is ever latched while the panel runs at rate Y.
func TestLTPOIntegration(t *testing.T) {
	fling := Fling{Start: 0, Velocity: 3000, DownFor: FromMillis(150),
		Friction: 1.2, Settle: FromSeconds(4)}
	velocity := func(tt Time) float64 {
		dt := FromMillis(4)
		return (fling.Value(tt.Add(dt)) - fling.Value(tt)) / dt.Seconds()
	}
	period := PeriodForHz(120).Milliseconds()
	p := Profile{
		Name: "ltpo-int", ShortMeanMs: 0.4 * period, ShortSigmaMs: 0.12 * period,
		LongRatio: 0.04, LongScaleMs: 1.5 * period, LongAlpha: 2.5,
		Burstiness: 0.1, UIShare: 0.35,
	}
	rec := NewRecorder()
	r := Run(Config{
		Mode: DVSync, Panel: Mate60Pro.Panel(), Buffers: 4,
		Trace:      p.Generate(400, 5),
		LTPOPolicy: DefaultLTPOPolicy(), LTPOVelocity: velocity,
		Recorder: rec,
	})
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	rateAt := 120
	rates := map[int]int{}
	for _, f := range r.Presented {
		rates[f.Seq] = f.RateHz
	}
	switches := 0
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case "rate-change":
			rateAt = ev.Hz
			switches++
		case "frame-latched":
			if rb := rates[ev.Frame]; rb != 0 && rb != rateAt {
				t.Fatalf("frame %d rendered for %d Hz latched at %d Hz", ev.Frame, rb, rateAt)
			}
		}
	}
	if switches < 2 {
		t.Errorf("expected the fling to step down through rates, got %d switches", switches)
	}
}

func TestPredictorsExposed(t *testing.T) {
	h := []InputSample{{At: 0, Value: 0}, {At: Time(FromMillis(10)), Value: 10}}
	at := Time(FromMillis(20))
	if got := (LinearPredictor{}).Predict(h, at); got < 19 || got > 21 {
		t.Errorf("linear = %v", got)
	}
	if got := (LastValuePredictor{}).Predict(h, at); got != 10 {
		t.Errorf("last-value = %v", got)
	}
	if got := (QuadraticPredictor{}).Predict(h, at); got < 15 || got > 25 {
		t.Errorf("quadratic = %v", got)
	}
}

func TestUseCaseFacade(t *testing.T) {
	uc := UseCases()[20] // cls notif ctr
	script := CompileUseCase(uc)
	if len(script.Steps) < 3 {
		t.Fatalf("script has %d steps", len(script.Steps))
	}
	rep := RunUseCase(uc, Mate60Pro, VSync, 5)
	if rep.Frames == 0 {
		t.Fatal("empty report")
	}
	repD := RunUseCase(uc, Mate60Pro, DVSync, 5)
	if repD.Janks > rep.Janks {
		t.Errorf("D-VSync janks %.1f exceed VSync %.1f", repD.Janks, rep.Janks)
	}
}
