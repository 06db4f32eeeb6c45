// Package obs is the simulator's HTTP introspection endpoint: a
// read-only management plane (modeled on ndn-dpdk's ndndpdk-svc) that
// serves the engine's wall-clock self-metrics and the latest
// deterministic telemetry snapshot while a run executes.
//
// Three routes:
//
//	/metrics      — Prometheus text format: every internal/telemetry/self
//	                instrument (ev_self_*) plus the most recent
//	                deterministic registry snapshots (ev_run_*, labelled
//	                by run).
//	/status       — one JSON object: sim-time progress, windows and
//	                barrier stalls per domain, trial progress, last
//	                checkpoint, and host-supplied fields (config digest).
//	/debug/pprof  — net/http/pprof.
//
// The server only ever reads: self-metrics are atomics, and
// deterministic snapshots come from the host's Runs callback, which
// must return collectors that are either quiescent or in live mode
// (telemetry.Options.Live). Nothing served here feeds back into the
// simulation, so byte-identity of all deterministic outputs with the
// server on vs off is a structural property, pinned by the obs tests.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

// Options configures Serve.
type Options struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// Runs returns the deterministic collectors to expose under
	// /metrics and to summarize in /status. May be nil; called per
	// scrape, so it should return the latest completed (or live)
	// snapshots cheaply.
	Runs func() []telemetry.RunExport
	// Status returns host-specific fields merged into the /status
	// object (config digest, output paths, trial labels). May be nil.
	Status func() map[string]any
}

// Server is a running introspection endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	opts Options
}

// Serve starts the endpoint on opts.Addr and enables self-metric
// recording. It returns once the listener is bound, so Addr is final.
func Serve(opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	self.Enable()
	s := &Server{ln: ln, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server. Self-metric recording stays enabled so final
// log lines can still report totals.
func (s *Server) Close() error { return s.srv.Close() }

// promName sanitizes a dotted metric name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the Prometheus text format.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	self.Scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	for _, sm := range self.Snapshot() {
		// self.domain3.windows -> ev_self_domain3_windows etc.
		name := "ev_" + promName(sm.Name)
		switch sm.Kind {
		case "counter":
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, sm.Value)
		case "gauge":
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, sm.Value)
		case "hist":
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
			var cum uint64
			for _, bk := range sm.Buckets {
				cum += bk.Count
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, bk.High, cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, sm.Count)
			fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", name, sm.Sum, name, sm.Count)
		}
	}

	if s.opts.Runs != nil {
		runs := s.opts.Runs()
		sort.Slice(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
		for _, run := range runs {
			label := fmt.Sprintf("{run=\"%s\"}", promLabel(run.Label))
			for _, m := range run.C.Registry().Snapshot() {
				name := "ev_run_" + promName(m.Name)
				switch m.Type {
				case "counter", "gauge":
					fmt.Fprintf(&b, "# TYPE %s %s\n%s%s %d\n", name, m.Type, name, label, m.Value)
				case "histogram":
					fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
					var cum uint64
					for _, bk := range m.Buckets {
						cum += bk.Count
						fmt.Fprintf(&b, "%s_bucket{run=\"%s\",le=\"%d\"} %d\n",
							name, promLabel(run.Label), bk.High, cum)
					}
					fmt.Fprintf(&b, "%s_bucket{run=\"%s\",le=\"+Inf\"} %d\n",
						name, promLabel(run.Label), m.Count)
					fmt.Fprintf(&b, "%s_sum%s %d\n%s_count%s %d\n",
						name, label, m.Sum, name, label, m.Count)
				}
			}
		}
	}
	w.Write([]byte(b.String()))
}

// domainStatus is one domain's row in /status.
type domainStatus struct {
	Domain         int    `json:"domain"`
	Windows        uint64 `json:"windows"`
	BarrierStallNS uint64 `json:"barrier_stall_ns"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"sim_now_ps":              self.SimNowPS.Value(),
		"domains":                 self.Domains(),
		"sched_dispatch":          self.SchedDispatch.Value(),
		"trials_done":             self.TrialsDone.Value(),
		"trials_total":            self.TrialsTotal.Value(),
		"pool_in_use":             self.PoolInUse.Cur(),
		"pool_high_water":         self.PoolInUse.High(),
		"stream_flushes":          self.StreamFlushes.Value(),
		"stream_records":          self.StreamRecords.Value(),
		"checkpoint_writes":       self.CheckpointWriteNS.Count(),
		"checkpoint_last_unix_ns": self.CheckpointLastUnixNS.Value(),
	}
	var doms []domainStatus
	for d := 0; d < self.Domains() && d < self.MaxDomains; d++ {
		doms = append(doms, domainStatus{
			Domain:         d,
			Windows:        self.DomainWindows(d).Value(),
			BarrierStallNS: self.DomainStallNS(d).Value(),
		})
	}
	doc["domain_status"] = doms
	if s.opts.Status != nil {
		for k, v := range s.opts.Status() {
			doc[k] = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
