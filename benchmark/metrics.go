package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric and its unit. The two lists below are the
// program's side of BENCHMARK.json; the smoke test holds them equal.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports all
// of them; README.md says which operation op and alt are on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"alt_ms", "ms"},
}

// perLayer is reported by the traced run. Three groups: layer probes
// (measured in isolation, on every workload), the workload's own breakdown
// from spans (shares of op_ms / alt_ms; 0 where a layer does no
// work), and exact counts taken at layer boundaries.
var perLayer = []metricDef{
	// Layer probes.
	{"statesave.serialize_MBps", "MB/s"},
	{"statesave.deserialize_MBps", "MB/s"},
	{"statesave.serialize_allocs_per_op", "count"},
	{"statesave.serialize_B_per_op", "B"},
	{"wire.write_MBps", "MB/s"},
	{"wire.read_MBps", "MB/s"},
	{"wire.frame_ns", "ns"},
	{"codec.rs42.encode_MBps", "MB/s"},
	{"codec.rs42.decode_MBps", "MB/s"},
	{"codec.xor41.encode_MBps", "MB/s"},
	{"codec.dup.encode_MBps", "MB/s"},
	{"codec.rs42.encode_allocs_per_op", "count"},
	{"codec.rs42.encode_B_per_op", "B"},
	{"tcp.small_frame_us", "us"},
	{"tcp.small_msgs_per_s", "1/s"},
	{"tcp.bulk_MBps", "MB/s"},
	{"mpi.pingpong_us", "us"},
	{"disk.write_MBps", "MB/s"},
	{"disk.commit_ms", "ms"},
	{"disk.read_MBps", "MB/s"},
	// The workload's primary operation, by layer.
	{"share.serialize", "share"},
	{"share.store_write", "share"},
	{"share.encode", "share"},
	{"share.ship_ack", "share"},
	{"share.store_commit", "share"},
	{"share.protocol", "share"},
	{"share.app", "share"},
	{"share.suspect", "share"},
	{"share.agree", "share"},
	{"share.respawn", "share"},
	{"share.restore", "share"},
	{"share.unattributed", "share"},
	// The secondary operation, by layer.
	{"alt_share.open", "share"},
	{"alt_share.read", "share"},
	{"alt_share.deserialize", "share"},
	// The same pass, read differently.
	{"op_ms_p95", "ms"},
	{"op_samples", "count"},
	{"alt_samples", "count"},
	{"trace_overhead_ratio", "ratio"},
	{"overhead_ratio", "ratio"},
	{"stream_msgs_per_s", "1/s"},
	{"ckpt_MBps", "MB/s"},
	{"stored_ratio", "ratio"},
	// Counts at layer boundaries.
	{"mpi.sends_per_op", "count"},
	{"ckpt.piggyback_bytes_per_msg", "B"},
	{"ckpt.control_msgs_per_line", "count"},
	{"ckpt.late_logged_per_line", "count"},
	{"ckpt.start_share", "share"},
	{"tcp.frames_sent", "count"},
	{"tcp.bytes_delivered", "B"},
	{"dist.wire_bytes_per_ckpt_byte", "ratio"},
	{"dist.reassemblies", "count"},
	{"dist.commit_errors", "count"},
	{"disk.bytes_per_ckpt_byte", "ratio"},
	{"detect.false_suspects", "count"},
	{"cluster.port_collisions", "count"},
	{"recover.stall_share", "share"},
	{"recover.from_scratch", "count"},
	{"recover.p50_over_typical", "ratio"},
	{"recover.max_over_typical", "ratio"},
	{"cycle_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept in a -json report.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	result
	Failures []string `json:"failures,omitempty"`
}

// report is a -json file: host metadata and the runs appended to it.
type report struct {
	Host map[string]string `json:"host"`
	Runs []record          `json:"runs"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// appendRecord adds rec to the report at path, creating it if missing.
func appendRecord(path string, rec record) error {
	rep, err := readReport(path)
	if os.IsNotExist(err) {
		rep, err = &report{Host: hostInfo()}, nil
	}
	if err != nil {
		return err
	}
	rep.Runs = append(rep.Runs, rec)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// findRoot walks up from the working directory to the one that holds
// BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above")
		}
		dir = parent
	}
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}
