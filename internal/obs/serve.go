package obs

import (
	"encoding/json"
	"net/http"
)

// This file is the live telemetry endpoint: a handler set serving the
// registry's CURRENT state while a run is in flight — the stepping
// stone to rockd's serving-side observability (ROADMAP items 1–2). The
// paper's evaluation reads its cluster's monitoring mid-run (§6); here
// an in-process HTTP mux substitutes for the Kubernetes monitoring
// stack (see DESIGN.md's substitution table):
//
//	/metrics   Prometheus text exposition of every counter/gauge/histogram
//	/spans     completed trace spans as JSON
//	/snapshot  the full Snapshot, exactly what -metrics-out writes
//	/trace     the Chrome trace-event export of /spans
//
// Every handler snapshots under the registry's own locks, so scraping
// concurrently with recording is race-clean; a nil *Registry serves
// empty-but-valid documents.

// AttachHandlers registers the telemetry endpoints on mux. Safe on a
// nil registry (handlers then serve empty documents).
func (r *Registry) AttachHandlers(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Spans        []SpanRecord `json:"spans"`
			DroppedSpans uint64       `json:"dropped_spans"`
		}{r.Spans(), r.DroppedSpans()})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, r.Spans())
	})
}

// Handler returns a standalone mux with the telemetry endpoints.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	r.AttachHandlers(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
