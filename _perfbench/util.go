package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle ones).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks. It panics on
// an empty sample: every caller measures at least one value first.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest of 99, 95, 90, 75 and 50 that has at
// least ten samples beyond it, so a reported tail is never one outlier.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sha hex-encodes the SHA-256 of data.
func sha(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// sourceDigest fingerprints the checkout's Go sources (the checkout the
// benchmark runs in is not a git repository, so there is no commit id to
// read). Build outputs and hidden directories are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// worker is one child process of the benchmark binary. It announces
// "ready" on its first output line once its set-up is done; setup is the
// host time from process start to that line.
type worker struct {
	cmd   *exec.Cmd
	out   *bufio.Reader
	start time.Time
	setup time.Duration
}

// startWorker launches the benchmark binary in child mode and waits for
// its ready line.
func startWorker(b *bench, kind string, extra ...string) (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-child", kind, "-seed", fmt.Sprint(b.seed), "-root", b.root}, extra...)
	cmd := command(self, args...)
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, out: bufio.NewReader(pipe), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := w.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ready" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("%s worker did not get ready: %q %v", kind, line, err)
	}
	w.setup = time.Since(w.start)
	return w, nil
}

// finish decodes the worker's result line into v, waits for it to exit
// and returns its peak resident memory in MB.
func (w *worker) finish(v any) (float64, error) {
	data, err := io.ReadAll(w.out)
	if err != nil {
		w.cmd.Process.Kill()
	}
	werr := w.cmd.Wait()
	if err != nil {
		return 0, err
	}
	if werr != nil {
		return 0, fmt.Errorf("worker: %w", werr)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return 0, fmt.Errorf("worker result: %w", err)
	}
	return peakRSSMB(w.cmd.ProcessState), nil
}

// peakRSSMB reads a finished process's peak resident set size.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// command prepares a child process that the kernel kills if the
// benchmark dies first, so an interrupted run leaves nothing running.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// repeat calls fn until the run's measuring time is used, at least twice.
func repeat(b *bench, fn func() error) error {
	deadline := time.Now().Add(time.Duration(b.seconds) * time.Second)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}
