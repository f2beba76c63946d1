// Package gantt renders engine run timelines as terminal Gantt charts —
// the ASCII counterpart of the paper's Figures 7–9, showing how loading,
// NVLink migration, and execution overlap under a plan.
package gantt

import (
	"fmt"
	"io"
	"strings"

	"deepplan/internal/engine"
	"deepplan/internal/sim"
)

// Options configures rendering.
type Options struct {
	// Width is the chart width in columns (default 100).
	Width int
	// MaxRows caps how many layers are drawn; layers are bucketed to fit
	// (default 40).
	MaxRows int
}

// Render writes a three-track Gantt chart of a run: for each displayed
// layer, its copy window (=), NVLink forward window (~), stall (.) and
// execution (#), on a shared virtual time axis.
func Render(w io.Writer, res *engine.Result, opts Options) error {
	if res == nil {
		return fmt.Errorf("gantt: nil result")
	}
	width := opts.Width
	if width <= 0 {
		width = 100
	}
	maxRows := opts.MaxRows
	if maxRows <= 0 {
		maxRows = 40
	}
	span := res.Finish.Sub(res.Submitted)
	if span <= 0 {
		return fmt.Errorf("gantt: empty run")
	}
	col := func(at sim.Time) int {
		c := int(float64(at-res.Submitted) / float64(span) * float64(width))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	fmt.Fprintf(w, "%s / %s — %.2f ms total, %.2f ms stalled\n",
		res.Model, res.Mode,
		res.Latency().Seconds()*1e3, res.TotalStall.Seconds()*1e3)
	fmt.Fprintf(w, "legend: = copy   ~ NVLink forward   . stall   # execute\n\n")

	// Bucket layers so at most maxRows rows are drawn.
	n := len(res.Timings)
	per := (n + maxRows - 1) / maxRows
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		paint := func(from, to sim.Time, ch byte) {
			if to <= from {
				return
			}
			a, b := col(from), col(to)
			for c := a; c <= b; c++ {
				// Execution marks dominate; stalls fill blanks only.
				if ch == '.' && row[c] != ' ' {
					continue
				}
				row[c] = ch
			}
		}
		for i := lo; i < hi; i++ {
			t := &res.Timings[i]
			paint(t.LoadStart, t.LoadDone, '=')
			if t.AvailAt > t.LoadDone && t.LoadDone > 0 {
				paint(t.LoadDone, t.AvailAt, '~')
			}
			if t.Stall > 0 {
				paint(t.ExecStart.Add(-t.Stall), t.ExecStart, '.')
			}
			paint(t.ExecStart, t.ExecDone, '#')
		}
		label := res.LayerName(lo)
		if hi-lo > 1 {
			label = fmt.Sprintf("%s..%d", truncate(label, 18), hi-1)
		}
		fmt.Fprintf(w, "%-24s |%s|\n", truncate(label, 24), string(row))
	}
	// Time axis.
	fmt.Fprintf(w, "%-24s |%s|\n", "", strings.Repeat("-", width))
	fmt.Fprintf(w, "%-24s  0%*s\n", "",
		width-1, fmt.Sprintf("%.1f ms", span.Seconds()*1e3))
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
