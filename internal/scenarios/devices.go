// Package scenarios catalogs every workload the paper evaluates: the three
// devices of Table 1, the 25 Android apps of Figure 11, the 75 OS use cases
// of Appendix A (subsets of which appear in Figures 12 and 13), the 15
// mobile games of Figure 14, the professional-UX composite tasks of
// Table 2, and the Chromium case-study pages of §6.6.
//
// Each scenario couples a descriptive record (names, figure membership,
// measured baseline numbers from the paper) with a workload profile shape.
// The paper's absolute baseline FDPS values are *calibration targets*: the
// experiment harness scales each profile until the simulated VSync baseline
// matches the measured one, and only then runs D-VSync — so every D-VSync
// number in this repository is a prediction of the mechanism, not a copied
// constant.
package scenarios

import (
	"dvsync/internal/display"
	"dvsync/internal/simtime"
)

// Backend is the GPU API used in an experiment (§3.2 evaluates both).
type Backend string

// Rendering backends of Table 1.
const (
	GLES   Backend = "GLES"
	Vulkan Backend = "Vulkan"
)

// Device is one row of Table 1.
type Device struct {
	// Name is the marketing name.
	Name string
	// Release is the launch date.
	Release string
	// OS is the system under test.
	OS string
	// Backends lists supported GPU APIs.
	Backends []Backend
	// Width, Height are panel pixels.
	Width, Height int
	// RefreshHz is the panel refresh rate.
	RefreshHz int
	// Buffers is the default VSync buffer-queue size: Android triple
	// buffering, OpenHarmony four (§2).
	Buffers int
	// PaperLatencyMs is the measured average VSync rendering latency
	// (§3.3), kept for EXPERIMENTS.md comparison.
	PaperLatencyMs float64
}

// Period returns the refresh period.
func (d Device) Period() simtime.Duration { return simtime.PeriodForHz(d.RefreshHz) }

// Panel returns the display configuration for simulations on this device.
func (d Device) Panel() display.Config {
	return display.Config{
		Name:      d.Name,
		RefreshHz: d.RefreshHz,
		Width:     d.Width,
		Height:    d.Height,
	}
}

// The three evaluation devices (Table 1).
var (
	Pixel5 = Device{
		Name: "Google Pixel 5", Release: "Oct 2020", OS: "AOSP 13",
		Backends: []Backend{GLES},
		Width:    1080, Height: 2340, RefreshHz: 60, Buffers: 3,
		PaperLatencyMs: 45.8,
	}
	Mate40Pro = Device{
		Name: "Mate 40 Pro", Release: "Nov 2020", OS: "OpenHarmony 4.0",
		Backends: []Backend{GLES},
		Width:    1344, Height: 2772, RefreshHz: 90, Buffers: 4,
		PaperLatencyMs: 32.2,
	}
	Mate60Pro = Device{
		Name: "Mate 60 Pro", Release: "Aug 2023", OS: "OpenHarmony 4.0",
		Backends: []Backend{GLES, Vulkan},
		Width:    1260, Height: 2720, RefreshHz: 120, Buffers: 4,
		PaperLatencyMs: 24.2,
	}
)

// Devices lists Table 1 in paper order.
func Devices() []Device { return []Device{Pixel5, Mate40Pro, Mate60Pro} }
