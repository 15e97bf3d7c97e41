package ops

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// fakeBackend records control-plane verbs and serves canned snapshots.
type fakeBackend struct {
	status  Status
	metrics Metrics

	ckpts  int
	drains []int
	joins  []int
	fail   error
}

func (f *fakeBackend) Status() Status   { return f.status }
func (f *fakeBackend) Metrics() Metrics { return f.metrics }
func (f *fakeBackend) CheckpointNow() error {
	f.ckpts++
	return f.fail
}
func (f *fakeBackend) Drain(rank int) error {
	f.drains = append(f.drains, rank)
	return f.fail
}
func (f *fakeBackend) JoinHint(slot int) error {
	f.joins = append(f.joins, slot)
	return f.fail
}

func newTestServer(t *testing.T, b Backend) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", b)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out)
}

func TestStatusAndSubViews(t *testing.T) {
	b := &fakeBackend{status: Status{
		Rank: 2, World: 4, Capacity: 6, Attempt: 1,
		Epoch: 3, MembershipEpoch: 3, Members: []int{0, 1, 2, 3, 4},
		Line: 7, Checkpoints: 7, StoredBytes: 4096,
	}}
	s := newTestServer(t, b)
	base := "http://" + s.Addr()

	code, body := get(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st.Rank != 2 || st.MembershipEpoch != 3 || len(st.Members) != 5 || st.Line != 7 {
		t.Fatalf("status round-trip mangled: %+v", st)
	}

	for path, want := range map[string]string{
		"/epoch":      `"epoch": 3`,
		"/line":       `"line": 7`,
		"/membership": `"members"`,
	} {
		code, body := get(t, base+path)
		if code != http.StatusOK || !strings.Contains(body, want) {
			t.Fatalf("%s: %d %q (want %q)", path, code, body, want)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	b := &fakeBackend{metrics: Metrics{
		Rank: 1, Attempt: 0, Commits: 12, CommitSeconds: 0.25,
		Detections: 2, DetectLastSecs: 0.031, Epoch: 3, MembershipEpoch: 3,
		Members: 5, StoredBytes: 1 << 20, ReplicatedBytes: 3 << 20,
		Reassemblies: 1, FromScratch: 1, Fenced: true,
		Suspicions: map[string]uint64{"loss": 2, "lease": 1, "report": 0},
	}}
	s := newTestServer(t, b)
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE c3_commits_total counter",
		`c3_commits_total{rank="1"} 12`,
		`c3_commit_seconds_total{rank="1"} 0.25`,
		`c3_detections_total{rank="1"} 2`,
		`c3_restores_from_scratch_total{rank="1"} 1`,
		"# TYPE c3_suspicions_total counter",
		`c3_suspicions_total{rank="1",cause="loss"} 2`,
		`c3_suspicions_total{rank="1",cause="report"} 0`,
		`c3_membership_epoch{rank="1"} 3`,
		`c3_members{rank="1"} 5`,
		`c3_fenced{rank="1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Exposition-format sanity: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestVerbs(t *testing.T) {
	b := &fakeBackend{}
	s := newTestServer(t, b)
	base := "http://" + s.Addr()

	if code, body := post(t, base+"/checkpoint", ""); code != http.StatusOK {
		t.Fatalf("/checkpoint: %d %s", code, body)
	}
	if b.ckpts != 1 {
		t.Fatalf("checkpoint verb not delivered (count=%d)", b.ckpts)
	}
	if code, _ := post(t, base+"/drain?rank=4", ""); code != http.StatusOK {
		t.Fatalf("/drain?rank=4 failed: %d", code)
	}
	if code, _ := post(t, base+"/drain", `{"rank": 5}`); code != http.StatusOK {
		t.Fatalf("/drain JSON body failed: %d", code)
	}
	if fmt.Sprint(b.drains) != "[4 5]" {
		t.Fatalf("drains = %v, want [4 5]", b.drains)
	}
	if code, _ := post(t, base+"/join", `{"slot": 4}`); code != http.StatusOK {
		t.Fatalf("/join failed: %d", code)
	}
	if code, _ := post(t, base+"/join", ""); code != http.StatusOK {
		t.Fatalf("/join with no slot failed: %d", code)
	}
	if fmt.Sprint(b.joins) != "[4 -1]" {
		t.Fatalf("joins = %v, want [4 -1]", b.joins)
	}

	// Verb endpoints refuse GET.
	if code, _ := get(t, base+"/drain?rank=1"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /drain = %d, want 405", code)
	}
	// Malformed drain is a client error, not a backend call.
	if code, _ := post(t, base+"/drain", ""); code != http.StatusBadRequest {
		t.Fatalf("POST /drain with no rank = %d, want 400", code)
	}
	// Backend refusal surfaces as 409.
	b.fail = fmt.Errorf("membership agreement in flight")
	if code, body := post(t, base+"/drain?rank=4", ""); code != http.StatusConflict || !strings.Contains(body, "in flight") {
		t.Fatalf("backend error not surfaced: %d %q", code, body)
	}
}
