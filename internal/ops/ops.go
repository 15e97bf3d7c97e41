// Package ops is the per-node embedded operations control plane: a tiny
// HTTP server every self-healing node can expose (cmd/c3node -ops-base)
// that answers the questions an operator of a long-running elastic world
// asks — what epoch are you on, what membership do you believe in, what
// was your last committed recovery line — and accepts the three verbs that
// change the world: checkpoint now, drain a member, admit a new one.
//
// The server is deliberately dependency-free (net/http + encoding/json)
// and talks to the hosting node only through the Backend interface, so the
// package has no import of internal/cluster: the node implements Backend,
// ops serves it, and the import arrow points from cluster to ops.
//
// Surface:
//
//	GET  /status      full node status (JSON)
//	GET  /epoch       {"epoch":E}               — agreed recovery epoch
//	GET  /line        {"line":V}                — last locally committed line
//	GET  /membership  {"epoch":E,"members":[…]} — current membership
//	GET  /metrics     Prometheus text exposition (counters, gauges, and the
//	                  flight recorder's per-phase latency histograms)
//	GET  /trace       flight-recorder snapshot (JSON; see trace.go)
//	POST /checkpoint  force a recovery line at the next pragma
//	POST /drain       {"rank":R} or ?rank=R     — graceful membership shrink
//	POST /join        {"slot":S} or ?slot=S     — request a new member (S=-1:
//	                                              launcher picks a spare slot)
//	POST /trace/dump  write the flight recorder's ring to the trace dir
//
// Serve(addr, b, WithDebug()) additionally mounts /debug/pprof/ and the
// runtime/trace start/stop verbs (trace.go).
package ops

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"c3/internal/trace"
)

// Status is the full node status served at /status.
type Status struct {
	// Rank is the hosted slot; World the fixed compute world size (MPI
	// ranks running the application); Capacity the pre-allocated slot
	// count membership can grow into.
	Rank     int `json:"rank"`
	World    int `json:"world"`
	Capacity int `json:"capacity"`
	// Storage marks a storage-only member: a slot >= World that hosts
	// checkpoint shards and votes in agreements but runs no app rank.
	Storage bool `json:"storage"`
	// Attempt is the world launch currently running (-1 before the first).
	Attempt int `json:"attempt"`
	// Epoch is the agreed recovery epoch; MembershipEpoch the epoch that
	// installed the current membership (they coincide whenever the latest
	// agreement changed membership).
	Epoch           uint64 `json:"epoch"`
	MembershipEpoch uint64 `json:"membership_epoch"`
	Members         []int  `json:"members"`
	Dead            []int  `json:"dead"`
	Fenced          bool   `json:"fenced"`
	// GroupSize is the configured checkpoint-group width (0: flat world);
	// Groups the number of groups the current membership partitions into,
	// and Delegates the per-group report delegates (the lowest member of
	// each group) of the two-level topology. All three are omitted in a
	// flat world.
	GroupSize int   `json:"group_size,omitempty"`
	Groups    int   `json:"groups,omitempty"`
	Delegates []int `json:"delegates,omitempty"`
	// Line is the last locally committed recovery line (-1: none yet).
	Line int `json:"line"`
	// Checkpoints counts lines committed by this node's store since boot.
	Checkpoints int64 `json:"checkpoints"`
	// StoredBytes is this node's resident stable-storage footprint: own
	// copies plus replica shards held for peers.
	StoredBytes int64 `json:"stored_bytes"`
}

// Metrics is the counter snapshot rendered at /metrics.
type Metrics struct {
	Rank            int
	Attempt         int
	Commits         int64   // lines committed locally
	CommitSeconds   float64 // total wall time inside commit (latency sum)
	Detections      uint64  // committed epoch transitions observed
	DetectLastSecs  float64 // suspicion->agreement latency of the latest one
	Epoch           uint64
	MembershipEpoch uint64
	Members         int
	Groups          int // checkpoint groups in the current topology (1: flat)
	StoredBytes     int64
	ReplicatedBytes int64
	Reassemblies    int64
	FromScratch     int64 // restore attempts that found no complete line and re-executed
	Fenced          bool
	// Suspicions counts suspicions raised, by the detection path that
	// raised them ("loss", "lease", "report").
	Suspicions map[string]uint64
}

// Backend is what the hosting node exposes to the control plane. All
// methods must be safe to call from HTTP handler goroutines.
type Backend interface {
	// Status snapshots the node's current view of the world.
	Status() Status
	// Metrics snapshots the node's counters.
	Metrics() Metrics
	// CheckpointNow asks the running attempt to take a recovery line at
	// its next pragma.
	CheckpointNow() error
	// Drain starts the membership agreement that removes rank gracefully.
	Drain(rank int) error
	// JoinHint asks the launcher to spawn a process for the given spare
	// slot (or any spare slot when slot is -1) and admit it.
	JoinHint(slot int) error
}

// Server is one node's running control-plane endpoint.
type Server struct {
	backend Backend
	ln      net.Listener
	srv     *http.Server
	rec     *trace.Recorder
	debug   bool

	rtMu   sync.Mutex
	rtFile *os.File // open runtime/trace capture (nil when none)
}

// Serve starts the control plane on addr ("host:port"; port 0 picks one).
func Serve(addr string, b Backend, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s := &Server{backend: b, ln: ln, rec: trace.Default()}
	for _, opt := range opts {
		opt(s)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/epoch", s.handleEpoch)
	mux.HandleFunc("/line", s.handleLine)
	mux.HandleFunc("/membership", s.handleMembership)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/drain", s.handleDrain)
	mux.HandleFunc("/join", s.handleJoin)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/trace/dump", s.handleTraceDump)
	if s.debug {
		s.registerDebug(mux)
	}
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.backend.Status())
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]uint64{"epoch": s.backend.Status().Epoch})
}

func (s *Server) handleLine(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]int{"line": s.backend.Status().Line})
}

func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	st := s.backend.Status()
	m := map[string]any{"epoch": st.MembershipEpoch, "members": st.Members}
	if st.Groups > 0 {
		m["group_size"] = st.GroupSize
		m["groups"] = st.Groups
		m["delegates"] = st.Delegates
	}
	writeJSON(w, m)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if err := s.backend.CheckpointNow(); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]string{"checkpoint": "requested"})
}

// intArg reads an integer request parameter from the query string or a
// JSON object body ({"name": N}), preferring the query.
func intArg(r *http.Request, name string, def int) (int, error) {
	if q := r.URL.Query().Get(name); q != "" {
		return strconv.Atoi(q)
	}
	if r.Body != nil {
		var body map[string]json.Number
		if err := json.NewDecoder(r.Body).Decode(&body); err == nil {
			if v, ok := body[name]; ok {
				n, err := v.Int64()
				return int(n), err
			}
		}
	}
	return def, nil
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	rank, err := intArg(r, "rank", -1)
	if err != nil || rank < 0 {
		http.Error(w, "drain needs a rank (?rank=R or {\"rank\":R})", http.StatusBadRequest)
		return
	}
	if err := s.backend.Drain(rank); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{"drain": rank})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	slot, err := intArg(r, "slot", -1)
	if err != nil {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return
	}
	if err := s.backend.JoinHint(slot); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]any{"join": slot})
}

// handleMetrics renders the Prometheus text exposition format (v0.0.4):
// HELP/TYPE headers followed by one sample per line, all labeled with the
// node's rank so a scrape across the world aggregates cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.backend.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	rank := fmt.Sprintf(`{rank="%d"}`, m.Rank)
	emit := func(name, kind, help string, value string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s%s %s\n", name, help, name, kind, name, rank, value)
	}
	count := func(name, help string, v int64) { emit(name, "counter", help, strconv.FormatInt(v, 10)) }
	gauge := func(name, help string, v float64) {
		emit(name, "gauge", help, strconv.FormatFloat(v, 'g', -1, 64))
	}
	count("c3_commits_total", "recovery lines committed by this node's store", m.Commits)
	emit("c3_commit_seconds_total", "counter", "total wall time spent committing lines (ratio to c3_commits_total = mean commit latency)",
		strconv.FormatFloat(m.CommitSeconds, 'g', -1, 64))
	count("c3_detections_total", "committed epoch transitions observed by the failure detector", int64(m.Detections))
	gauge("c3_detection_latency_seconds", "suspicion-to-agreement latency of the most recent epoch transition", m.DetectLastSecs)
	if len(m.Suspicions) > 0 {
		fmt.Fprintf(&b, "# HELP c3_suspicions_total suspicions raised, by the detection path that raised them\n# TYPE c3_suspicions_total counter\n")
		causes := make([]string, 0, len(m.Suspicions))
		for c := range m.Suspicions {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			fmt.Fprintf(&b, "c3_suspicions_total{rank=\"%d\",cause=%q} %d\n", m.Rank, c, m.Suspicions[c])
		}
	}
	gauge("c3_epoch", "agreed recovery epoch", float64(m.Epoch))
	gauge("c3_membership_epoch", "epoch that installed the current membership", float64(m.MembershipEpoch))
	gauge("c3_members", "current membership size", float64(m.Members))
	if m.Groups > 1 {
		gauge("c3_groups", "checkpoint groups in the current topology", float64(m.Groups))
	}
	gauge("c3_attempt", "world launch currently running", float64(m.Attempt))
	gauge("c3_stored_bytes", "resident stable-storage footprint (own copies plus peer shards)", float64(m.StoredBytes))
	count("c3_replicated_bytes_total", "fragment bytes shipped to peer nodes", m.ReplicatedBytes)
	count("c3_reassemblies_total", "checkpoints rebuilt from peer fragments over the wire", m.Reassemblies)
	count("c3_restores_from_scratch_total", "restore attempts that found no complete recovery line and re-executed from the start", m.FromScratch)
	fenced := 0.0
	if m.Fenced {
		fenced = 1
	}
	gauge("c3_fenced", "1 while this node is on the minority side of a partition", fenced)

	// Build identity: the standard info-metric idiom (constant 1, identity
	// in the labels) so dashboards can join build metadata onto any series.
	fmt.Fprintf(&b, "# HELP c3_build_info build metadata of the serving binary (constant 1)\n# TYPE c3_build_info gauge\n")
	fmt.Fprintf(&b, "c3_build_info{rank=\"%d\",go=%q,module=\"c3\"} 1\n", m.Rank, runtime.Version())

	// The flight recorder's per-phase latency histograms. Buckets are the
	// recorder's log2-nanosecond buckets converted to seconds; families are
	// always present (empty histograms expose only HELP/TYPE, _sum and
	// _count) so scrapes see a stable schema from the first sample on.
	for _, hf := range []struct {
		kind trace.Kind
		name string
		help string
	}{
		{trace.KindCommit, "c3_commit_duration_seconds", "stable-store commit latency (Begin/WriteSection/Commit of one recovery line)"},
		{trace.KindSerialize, "c3_serialize_duration_seconds", "application-state capture latency (checkpoint serialization on the app thread)"},
		{trace.KindEncode, "c3_encode_duration_seconds", "fragment codec encode latency (replication sections to shards)"},
		{trace.KindShip, "c3_ship_duration_seconds", "fragment ship latency (replica send loop to ring neighbors)"},
		{trace.KindAck, "c3_ack_duration_seconds", "neighbor acknowledgment wait latency (commit barrier)"},
		{trace.KindRestore, "c3_restore_duration_seconds", "recovery-line restore latency (load, deserialize, resume)"},
		{trace.KindReassemble, "c3_reassemble_duration_seconds", "peer-fragment reassembly latency (rebuild a lost checkpoint over the wire)"},
		{trace.KindAgree, "c3_agree_duration_seconds", "epoch agreement latency (coordinator propose to commit)"},
		{trace.KindEpoch, "c3_detection_seconds", "failure detection latency (first local suspicion to committed epoch)"},
	} {
		writeHistogram(&b, hf.name, hf.help, m.Rank, s.rec.Histogram(hf.kind))
	}
	_, _ = w.Write([]byte(b.String()))
}

// writeHistogram renders one trace histogram as a Prometheus histogram
// family: cumulative _bucket samples up to the last occupied bucket, then
// +Inf, _sum and _count. Trailing empty buckets are elided — le boundaries
// are data, not schema, in the exposition format.
func writeHistogram(b *strings.Builder, name, help string, rank int, h trace.HistSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	last := -1
	for i, c := range h.Buckets {
		if c != 0 {
			last = i
		}
	}
	cum := uint64(0)
	for i := 0; i <= last; i++ {
		cum += h.Buckets[i]
		le := float64(trace.BucketUpperNs(i)) / 1e9
		fmt.Fprintf(b, "%s_bucket{rank=\"%d\",le=\"%s\"} %d\n",
			name, rank, strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	fmt.Fprintf(b, "%s_bucket{rank=\"%d\",le=\"+Inf\"} %d\n", name, rank, h.Count)
	fmt.Fprintf(b, "%s_sum{rank=\"%d\"} %s\n", name, rank,
		strconv.FormatFloat(float64(h.Sum)/1e9, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count{rank=\"%d\"} %d\n", name, rank, h.Count)
}
