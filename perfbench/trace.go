package main

import "time"

// Layers the benchmark attributes time to. Each public call the benchmark
// makes into the program is wrapped in a span tagged with one of them;
// "bench" is the benchmark's own glue between those calls.
var layers = []string{"statistical", "atpg", "faultsim", "sim", "pgrid", "io", "bench"}

// recorder times one pass of a workload: a span per call into a layer,
// nested under the pass's root span. A span's self time is its duration
// minus the time its child spans cover; per-layer self times therefore
// add up to the pass's wall time.
type recorder struct {
	self  map[string]time.Duration // per layer
	total map[string]time.Duration // per span name
	stack []*frame
}

type frame struct {
	start time.Time
	child time.Duration
}

func newRecorder() *recorder {
	return &recorder{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
}

// span runs fn inside a span named name, attributed to layer, and returns
// fn's error.
func (r *recorder) span(layer, name string, fn func() error) error {
	f := &frame{start: time.Now()}
	r.stack = append(r.stack, f)
	err := fn()
	d := time.Since(f.start)
	r.stack = r.stack[:len(r.stack)-1]
	if n := len(r.stack); n > 0 {
		r.stack[n-1].child += d
	}
	r.self[layer] += d - f.child
	r.total[name] += d
	return err
}

// seconds returns the total time spent in spans named name.
func (r *recorder) seconds(name string) float64 { return r.total[name].Seconds() }
