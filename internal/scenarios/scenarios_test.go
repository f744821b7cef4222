package scenarios

import (
	"math"
	"testing"

	"dvsync/internal/workload"
)

func TestDevicesTable(t *testing.T) {
	devs := Devices()
	if len(devs) != 3 {
		t.Fatalf("devices = %d", len(devs))
	}
	if Pixel5.RefreshHz != 60 || Mate40Pro.RefreshHz != 90 || Mate60Pro.RefreshHz != 120 {
		t.Error("refresh rates wrong")
	}
	if Pixel5.Buffers != 3 || Mate60Pro.Buffers != 4 {
		t.Error("default buffer counts wrong (Android 3, OpenHarmony 4)")
	}
	if d := Devices()[2]; d.Name != "Mate 60 Pro" || d.Width != 1260 {
		t.Errorf("Table 1's third device = %s, %d px wide, want Mate 60 Pro, 1260", d.Name, d.Width)
	}
}

func TestSeventyFiveUseCases(t *testing.T) {
	ucs := UseCases()
	if len(ucs) != 75 {
		t.Fatalf("use cases = %d, want 75", len(ucs))
	}
	seen := map[string]bool{}
	for i, u := range ucs {
		if u.ID != i+1 {
			t.Errorf("case %d has ID %d", i, u.ID)
		}
		if u.Abbrev == "" || u.Description == "" || u.Category == "" {
			t.Errorf("case %d incomplete: %+v", i, u)
		}
		if seen[u.Abbrev] {
			t.Errorf("duplicate abbreviation %q", u.Abbrev)
		}
		seen[u.Abbrev] = true
	}
}

func TestFigureCaseSetsResolve(t *testing.T) {
	// Every figure bar must reference a real Appendix A case.
	sets := map[string][]CaseRun{
		"fig12":  Mate60VulkanCases(),
		"fig13a": Mate40GLESCases(),
		"fig13b": Mate60GLESCases(),
	}
	wantLen := map[string]int{"fig12": 29, "fig13a": 9, "fig13b": 20}
	for name, set := range sets {
		if len(set) != wantLen[name] {
			t.Errorf("%s has %d cases, want %d", name, len(set), wantLen[name])
		}
		prev := math.Inf(1)
		for _, c := range set {
			if c.PaperVSyncFDPS <= 0 {
				t.Errorf("%s %q: non-positive baseline", name, c.Case.Abbrev)
			}
			if c.PaperVSyncFDPS > prev {
				t.Errorf("%s %q: bars not descending", name, c.Case.Abbrev)
			}
			prev = c.PaperVSyncFDPS
			if p := c.Profile(Mate60Pro); p.Validate() != nil {
				t.Errorf("%s %q: invalid profile", name, c.Case.Abbrev)
			}
		}
	}
}

func TestFigureAveragesNearPaper(t *testing.T) {
	avg := func(set []CaseRun) float64 {
		s := 0.0
		for _, c := range set {
			s += c.PaperVSyncFDPS
		}
		return s / float64(len(set))
	}
	if got := avg(Mate60VulkanCases()); math.Abs(got-PaperFig12[0]) > 0.9 {
		t.Errorf("fig12 baseline avg %v, paper %v", got, PaperFig12[0])
	}
	if got := avg(Mate40GLESCases()); math.Abs(got-PaperFig13Mate40[0]) > 0.4 {
		t.Errorf("fig13a baseline avg %v, paper %v", got, PaperFig13Mate40[0])
	}
	if got := avg(Mate60GLESCases()); math.Abs(got-PaperFig13Mate60[0]) > 0.9 {
		t.Errorf("fig13b baseline avg %v, paper %v", got, PaperFig13Mate60[0])
	}
}

func TestAppsCatalog(t *testing.T) {
	apps := Apps()
	if len(apps) != 25 {
		t.Fatalf("apps = %d, want 25", len(apps))
	}
	sum := 0.0
	for _, a := range apps {
		sum += a.PaperVSyncFDPS
	}
	if avg := sum / float64(len(apps)); math.Abs(avg-2.04) > 0.01 {
		t.Errorf("apps average %v, paper reports 2.04", avg)
	}
	if apps[0].Name != "Walmart" || apps[0].Tail != Scattered {
		t.Error("Walmart should lead with scattered drops (§6.1 analysis)")
	}
	if apps[1].Name != "QQMusic" || apps[1].Tail != HeavyTail {
		t.Error("QQMusic should be the heavy-tail outlier (§6.1 analysis)")
	}
	for _, a := range apps {
		p := a.Profile()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if p.Class != workload.Deterministic {
			t.Errorf("%s: app scrolls ride the oblivious channel", a.Name)
		}
	}
}

func TestGamesCatalog(t *testing.T) {
	games := Games()
	if len(games) != 15 {
		t.Fatalf("games = %d, want 15", len(games))
	}
	sum := 0.0
	for _, g := range games {
		sum += g.PaperVSyncFDPS
		if g.RateHz != 30 && g.RateHz != 60 && g.RateHz != 90 {
			t.Errorf("%s: unexpected rate %d", g.Name, g.RateHz)
		}
		p := g.Profile()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if p.Class != workload.Interactive {
			t.Errorf("%s: games use the decoupling-aware channel", g.Name)
		}
	}
	if avg := sum / 15; math.Abs(avg-0.79) > 0.05 {
		t.Errorf("games average %v, paper reports 0.79", avg)
	}
}

func TestUXTasksCatalog(t *testing.T) {
	tasks := UXTasks()
	if len(tasks) != 8 {
		t.Fatalf("tasks = %d, want 8 (Table 2)", len(tasks))
	}
	wantV := []int{20, 28, 25, 20, 20, 7, 14, 40}
	wantD := []int{12, 3, 2, 3, 2, 0, 13, 10}
	for i, task := range tasks {
		if task.PaperVSyncStutters != wantV[i] || task.PaperDVSyncStutters != wantD[i] {
			t.Errorf("%s: paper stutters (%d,%d), want (%d,%d)", task.Name,
				task.PaperVSyncStutters, task.PaperDVSyncStutters, wantV[i], wantD[i])
		}
		tr := task.Trace(1)
		if tr.Len() != task.Scenes*task.SceneFrames {
			t.Errorf("%s: trace len %d", task.Name, tr.Len())
		}
	}
}

func TestTrendGrowth(t *testing.T) {
	g := TrendGrowth()
	// The paper cites ≈25× growth since the iPhone 4 / Galaxy S era.
	if g < 15 || g > 35 {
		t.Errorf("trend growth %v, want ≈25x", g)
	}
}

func TestScopeShares(t *testing.T) {
	total := 0.0
	for _, s := range Scope() {
		total += s.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("scope shares sum to %v", total)
	}
}

func TestBaseProfileScalesWithDevice(t *testing.T) {
	p60 := BaseProfile("x", Pixel5, Moderate, workload.Deterministic)
	p120 := BaseProfile("x", Mate60Pro, Moderate, workload.Deterministic)
	if p120.ShortMeanMs >= p60.ShortMeanMs {
		t.Error("profiles should scale with the refresh period")
	}
	ratio := p60.LongScaleMs / p120.LongScaleMs
	if math.Abs(ratio-2) > 0.01 {
		t.Errorf("long scale ratio %v, want 2 (60 vs 120 Hz)", ratio)
	}
}

func TestMixedRealWorldProfileShape(t *testing.T) {
	p := MixedRealWorldProfile()
	tr := p.Generate(30000, 7)
	period := Pixel5.Period()
	within := 1 - tr.FractionOver(period)
	if within < 0.72 || within > 0.85 {
		t.Errorf("within one period = %v, paper reports 78.3%%", within)
	}
	beyond := tr.FractionOver(3 * period)
	if beyond < 0.01 || beyond > 0.08 {
		t.Errorf("beyond triple buffering = %v, paper reports ≈5%%", beyond)
	}
}

func TestChromiumPages(t *testing.T) {
	pages := BrowserPages()
	if len(pages) != 3 {
		t.Fatalf("pages = %d", len(pages))
	}
	sum := 0.0
	for _, p := range pages {
		sum += p.PaperVSyncFDPS
	}
	if math.Abs(sum/3-1.47) > 0.01 {
		t.Errorf("chromium average %v, paper reports 1.47", sum/3)
	}
}

func TestTailClassString(t *testing.T) {
	if Scattered.String() != "scattered" || Moderate.String() != "moderate" ||
		HeavyTail.String() != "heavy-tail" {
		t.Error("tail class strings wrong")
	}
}
