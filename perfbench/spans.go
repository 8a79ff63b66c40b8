package main

import "time"

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	ID int `json:"id"`
	// Parent is the enclosing span's ID, 0 for a root span.
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// StartNS and EndNS are nanoseconds since the recorder was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps spans in memory until the run writes them out. Spans are
// opened and closed on the benchmark's own goroutine only, so the innermost
// open span is the parent of the next one.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns the function that closes it. On a nil
// recorder both do nothing, which is how untraced runs skip tracing.
func (r *recorder) begin(name, detail string) func() {
	if r == nil {
		return func() {}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name, Detail: detail,
		StartNS: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, i)
	return func() {
		r.spans[i].EndNS = time.Since(r.t0).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// durations returns the seconds of every span named name (and, when detail
// is non-empty, with that detail).
func (r *recorder) durations(name, detail string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (detail == "" || s.Detail == detail) {
			out = append(out, s.seconds())
		}
	}
	return out
}

// childTotals returns, for each span named parent, the summed seconds of its
// direct children named child.
func (r *recorder) childTotals(parent, child string) []float64 {
	idx := map[int]int{}
	var out []float64
	for _, s := range r.spans {
		if s.Name == parent {
			idx[s.ID] = len(out)
			out = append(out, 0)
		}
	}
	for _, s := range r.spans {
		if i, ok := idx[s.Parent]; ok && s.Name == child {
			out[i] += s.seconds()
		}
	}
	return out
}
