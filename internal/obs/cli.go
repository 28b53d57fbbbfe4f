package obs

import (
	"flag"
	"fmt"
	"io"
	"time"
)

// Flags is the standard observability flag bundle every CLI registers:
// the v1 -report/-metrics-addr pair plus the tracing and time-series
// knobs. RegisterFlags binds them on the default flag set; Setup/Finish
// bracket the instrumented work.
type Flags struct {
	Report        string
	MetricsAddr   string
	Trace         string
	TraceEvents   int
	TraceSample   int
	SnapshotEvery time.Duration
}

// RegisterFlags registers the observability flags on the process flag
// set and returns the bundle to pass to Setup and Finish after parsing.
func RegisterFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Report, "report", "", "write a versioned JSON run report to `file`")
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve expvar metrics and pprof on `addr` (e.g. localhost:6060)")
	flag.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON timeline to `file` (load in Perfetto)")
	flag.IntVar(&f.TraceEvents, "trace-events", DefaultTraceEvents, "trace ring-buffer capacity in `events` (oldest overwritten beyond it)")
	flag.IntVar(&f.TraceSample, "trace-sample", 1, "record every `N`th worker-pool task in the trace")
	flag.DurationVar(&f.SnapshotEvery, "snapshot-interval", 0, "sample metrics into the report every `interval` (0 disables)")
	return f
}

// Setup enables whatever the parsed flags ask for: instrumentation when
// any output is requested, trace recording for -trace, the background
// snapshot sampler for -snapshot-interval, and the metrics listener for
// -metrics-addr. Call right after flag parsing, before any instrumented
// work.
func (f *Flags) Setup() error {
	if f.Report == "" && f.MetricsAddr == "" && f.Trace == "" && f.SnapshotEvery <= 0 {
		return nil
	}
	if f.Trace != "" {
		EnableTrace(f.TraceEvents, f.TraceSample)
	} else {
		Enable()
	}
	if f.SnapshotEvery > 0 {
		StartSnapshots(f.SnapshotEvery)
	}
	if f.MetricsAddr != "" {
		return ServeMetrics(f.MetricsAddr)
	}
	return nil
}

// Finish is the matching exit hook: it stops the snapshot sampler
// (appending one final sample so short runs still get a data point),
// builds the run report, writes the report and trace files when
// requested, and prints the human-readable summary to w. A no-op while
// instrumentation is disabled.
func (f *Flags) Finish(w io.Writer, tool string, config any) error {
	if !On() {
		return nil
	}
	if f.SnapshotEvery > 0 {
		StopSnapshots()
		TakeSnapshot()
	}
	r := BuildReport(tool, config)
	if f.Report != "" {
		if err := r.WriteFile(f.Report); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s\n", f.Report)
	}
	if f.Trace != "" {
		if err := WriteTrace(f.Trace); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s\n", f.Trace)
	}
	fmt.Fprint(w, "\n", r.SummaryTable())
	return nil
}
