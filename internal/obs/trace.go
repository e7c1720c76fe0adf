package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// This file exports completed spans in the Chrome trace-event JSON
// format (the {"traceEvents": [...]} object form), loadable in Perfetto
// or chrome://tracing. Each span becomes one complete ("X") event;
// spans are laid out on one lane (tid) per worker node — the span's
// Node tag names the worker that actually executed it, so a parallel
// chase's interleaving is visually inspectable — with
// untagged spans (clean/phase/round scaffolding) on lane 0. Thread
// metadata events name the lanes.

// traceEvent is one Chrome trace-event entry. Ts/Dur are microseconds
// (float, so sub-µs spans keep their width).
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes spans as a Perfetto-loadable Chrome trace.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	// One lane per worker node, lane 0 for the run scaffolding.
	nodes := map[string]bool{}
	for _, s := range spans {
		if s.Node != "" {
			nodes[s.Node] = true
		}
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	tid := map[string]int{"": 0}
	for i, n := range names {
		tid[n] = i + 1
	}

	tf := traceFile{DisplayTimeUnit: "ms"}
	meta := func(t int, label string) {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: t,
			Args: map[string]interface{}{"name": label},
		})
	}
	meta(0, "run")
	for _, n := range names {
		meta(tid[n], n)
	}
	for _, s := range spans {
		args := map[string]interface{}{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Rule != "" {
			args["rule"] = s.Rule
		}
		if s.Round != 0 {
			args["round"] = s.Round
		}
		if s.N != 0 {
			args["n"] = s.N
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: s.Name,
			Cat:  "rock",
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Pid:  1,
			Tid:  tid[s.Node],
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(tf)
}
