package scenarios

import "dvsync/internal/workload"

// App is one of the 25 world-top Android apps of Figure 11, evaluated on
// Google Pixel 5 by swiping the main page twice a second for 1000 frames.
type App struct {
	// Name as it appears on the Figure 11 x-axis.
	Name string
	// PaperVSyncFDPS is the measured VSync baseline (3 buffers) the
	// workload is calibrated to.
	PaperVSyncFDPS float64
	// Tail is the long-frame distribution class (§6.1 analysis).
	Tail TailClass
}

// Frames is the per-app recording length used in §6.1.
const AppFrames = 1000

// Apps lists Figure 11 in x-axis order. The per-app baselines are read off
// the figure (the paper states the average, 2.04, which this list matches);
// Walmart and QQMusic anchor the two extremes the analysis paragraph
// discusses.
func Apps() []App {
	return []App{
		{"Walmart", 4.5, Scattered},
		{"QQMusic", 4.2, HeavyTail},
		{"X", 3.8, Moderate},
		{"Apkpure", 3.4, Moderate},
		{"GroupMe", 3.1, Scattered},
		{"FoxNews", 2.9, Moderate},
		{"Facebook", 2.7, Moderate},
		{"Weibo", 2.5, Moderate},
		{"Shein", 2.4, Moderate},
		{"StudentUniv", 2.2, Scattered},
		{"Instagram", 2.1, Moderate},
		{"Zhihu", 2.0, Moderate},
		{"Lark", 1.9, Scattered},
		{"Reddit", 1.8, Moderate},
		{"Booking", 1.7, Moderate},
		{"Tidal", 1.6, Scattered},
		{"DoorDash", 1.5, Moderate},
		{"CNN", 1.4, Moderate},
		{"Discord", 1.2, Scattered},
		{"Bilibili", 1.1, Moderate},
		{"Snapchat", 0.9, Moderate},
		{"Taobao", 0.8, Moderate},
		{"VidMate", 0.6, Scattered},
		{"Tripadvisor", 0.4, Moderate},
		{"Pinterest", 0.3, Scattered},
	}
}

// Profile returns the app's uncalibrated workload shape. App scrolling is
// an interactive-then-fling pattern the OS UI framework drives, so frames
// are Deterministic for the oblivious channel (§4.2 classes list flings and
// transitions as deterministic animations).
func (a App) Profile() workload.Profile {
	return BaseProfile(a.Name, Pixel5, a.Tail, workload.Deterministic)
}

// Figure 11's D-VSync buffer sweep and paper-reported outcomes, for
// EXPERIMENTS.md comparison.
var (
	// AppBufferSweep is the queue sizes evaluated: VSync 3 then D-VSync
	// 4/5/7.
	AppBufferSweep = []int{4, 5, 7}
	// PaperAppAverages records Figure 11's reported averages keyed by
	// buffer count (3 = the VSync baseline).
	PaperAppAverages = map[int]float64{3: 2.04, 4: 0.58, 5: 0.25, 7: 0.06}
)
