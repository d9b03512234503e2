// Command sorctl is the SOR client CLI: it talks the binary wire protocol
// to a running sensing server (see cmd/sord) and scrapes its ops surface.
//
// Usage:
//
//	sorctl -server http://localhost:8080 rank -category coffee-shop -profile emma
//	sorctl -server http://localhost:8080 ping -token token-0-1
//	sorctl -server http://localhost:8080 metrics [-json] [-require a,b,c]
//	sorctl -server http://localhost:8080 trace [-request ID] [-limit 50]
//	sorctl -server http://localhost:8080 replica status [-json]
//	sorctl -server http://localhost:8080 cluster status [-json]
//	sorctl wal inspect <data-dir|wal-dir>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sor"
	"sor/internal/cluster"
	"sor/internal/replica"
	"sor/internal/store"
	"sor/internal/wal"
	"sor/internal/wire"
	"sor/internal/world"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("sorctl: %v", err)
	}
}

func run() error {
	serverURL := flag.String("server", "http://localhost:8080", "sensing server base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: sorctl [-server URL] rank|ping|metrics|trace|replica|cluster|wal [flags]")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	switch args[0] {
	case "rank":
		return rank(ctx, *serverURL, args[1:])
	case "ping":
		return ping(ctx, *serverURL, args[1:])
	case "metrics":
		return metrics(ctx, *serverURL, args[1:])
	case "trace":
		return trace(ctx, *serverURL, args[1:])
	case "replica":
		return replicaCmd(ctx, *serverURL, args[1:])
	case "cluster":
		return clusterCmd(ctx, *serverURL, args[1:])
	case "wal":
		return walCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// walCmd is the offline WAL toolbox; `wal inspect <dir>` dumps segment
// headers, record counts, and the offset of any torn or corrupt record.
// It accepts either the wal directory itself or a sord -data-dir (it
// looks for a wal/ subdirectory); given a data dir it also dumps the
// snapshot beside the log, whose binary sections are not human-readable.
func walCmd(args []string) error {
	if len(args) < 1 || args[0] != "inspect" {
		return fmt.Errorf("usage: sorctl wal inspect <data-dir|wal-dir>")
	}
	fs := flag.NewFlagSet("wal inspect", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the segment list as JSON")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sorctl wal inspect <data-dir|wal-dir>")
	}
	dir := fs.Arg(0)
	snapPath := store.SnapshotPath(dir)
	// A sord -data-dir holds the log under wal/.
	if sub := filepath.Join(dir, "wal"); dirExists(sub) {
		dir = sub
	}
	segs, err := wal.Inspect(dir)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(segs)
	}
	renderSegments(os.Stdout, dir, segs)
	info, err := store.InspectSnapshot(snapPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	renderSnapshot(os.Stdout, snapPath, info)
	return nil
}

// renderSegments writes the human `wal inspect` table. Split from walCmd
// so the golden-output test drives it against a bytes.Buffer.
func renderSegments(w io.Writer, dir string, segs []wal.SegmentInfo) {
	if len(segs) == 0 {
		fmt.Fprintf(w, "no WAL segments in %s\n", dir)
		return
	}
	var records int
	var bytes int64
	fmt.Fprintf(w, "%-24s %12s %10s %12s  %s\n", "SEGMENT", "FIRST-LSN", "RECORDS", "BYTES", "STATUS")
	for _, s := range segs {
		status := "ok"
		switch {
		case s.Corrupt != nil:
			status = fmt.Sprintf("CORRUPT at offset %d: %v", s.Corrupt.Offset, s.Corrupt.Err)
		case s.Torn:
			status = fmt.Sprintf("torn tail at offset %d", s.TornAt)
		}
		fmt.Fprintf(w, "%-24s %12d %10d %12d  %s\n", s.Name, s.FirstLSN, s.Records, s.Bytes, status)
		records += s.Records
		bytes += s.Bytes
	}
	fmt.Fprintf(w, "%d segments, %d records, %d bytes\n", len(segs), records, bytes)
}

// renderSnapshot writes the human snapshot table `wal inspect` prints
// after the segments: the header, then one line per section.
func renderSnapshot(w io.Writer, path string, info *store.SnapshotInfo) {
	fmt.Fprintf(w, "\nsnapshot %s: version %d, watermark LSN %d, upload seq %d, %d bytes\n",
		path, info.Version, info.Watermark, info.UploadSeq, info.Bytes)
	fmt.Fprintf(w, "%-8s %-8s %12s %10s %12s  %s\n", "SECTION", "KIND", "OFFSET", "ROWS", "BYTES", "CRC")
	for i, s := range info.Sections {
		rows, size, crc := "-", "-", "ok"
		if s.Rows >= 0 {
			rows = strconv.Itoa(s.Rows)
		}
		if s.Bytes > 0 {
			size = strconv.FormatInt(s.Bytes, 10)
		}
		if s.Err != nil {
			crc = fmt.Sprintf("BAD: %v", s.Err)
		}
		fmt.Fprintf(w, "%-8d %-8s %12d %10s %12s  %s\n", i, s.Kind, s.Offset, rows, size, crc)
	}
	bad := slices.IndexFunc(info.Sections, func(s store.SectionInfo) bool { return s.Err != nil })
	switch last := len(info.Sections) - 1; {
	case bad >= 0 && bad < last:
		fmt.Fprintf(w, "DAMAGED: section %d is bad; Open refuses this snapshot\n", bad)
	case bad >= 0:
		fmt.Fprintf(w, "DAMAGED: scan stopped at section %d; Open refuses this snapshot\n", last)
	case info.Complete:
		fmt.Fprintf(w, "%d sections, complete\n", len(info.Sections))
	default:
		fmt.Fprintf(w, "INCOMPLETE: no end section; Open refuses this snapshot\n")
	}
}

func dirExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.IsDir()
}

func newClient(serverURL string) (*sor.Client, error) {
	return sor.NewClient(serverURL)
}

func rank(ctx context.Context, serverURL string, args []string) error {
	fs := flag.NewFlagSet("rank", flag.ContinueOnError)
	category := fs.String("category", world.CategoryCoffee, "place category")
	profileName := fs.String("profile", "", "built-in profile name (alice|bob|chris|david|emma) or empty for defaults")
	topK := fs.Int("topk", 0, "return only the best K places (0 = full ranking)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topK < 0 {
		return fmt.Errorf("-topk must be >= 0, got %d", *topK)
	}
	client, err := newClient(serverURL)
	if err != nil {
		return err
	}
	req := &wire.RankRequest{Category: *category, UserID: *profileName, TopK: *topK}
	if *profileName != "" {
		found := false
		for _, p := range sor.BuiltinProfiles(*category) {
			if strings.EqualFold(p.Name, *profileName) {
				for feat, pref := range p.Prefs {
					req.Prefs = append(req.Prefs, wire.PrefEntry{
						Feature: feat, Kind: int(pref.Kind),
						Value: pref.Value, Weight: pref.Weight,
					})
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no built-in profile %q for category %s", *profileName, *category)
		}
		sort.Slice(req.Prefs, func(i, j int) bool { return req.Prefs[i].Feature < req.Prefs[j].Feature })
	}
	resp, err := client.Send(ctx, req)
	if err != nil {
		return err
	}
	switch r := resp.(type) {
	case *wire.RankResponse:
		fmt.Printf("ranking for %s (%s):\n", orAnon(*profileName), r.Category)
		for i, p := range r.Ranked {
			fmt.Printf("  No. %d  %-20s", i+1, p.Place)
			for j, f := range r.Features {
				if j < len(p.FeatureValues) {
					fmt.Printf("  %s=%.3g", f, p.FeatureValues[j])
				}
			}
			fmt.Println()
		}
		return nil
	case *wire.Ack:
		return fmt.Errorf("server refused: %s", r.Message)
	default:
		return fmt.Errorf("unexpected response %s", resp.Type())
	}
}

func ping(ctx context.Context, serverURL string, args []string) error {
	fs := flag.NewFlagSet("ping", flag.ContinueOnError)
	token := fs.String("token", "", "device token (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *token == "" {
		return fmt.Errorf("ping needs -token")
	}
	client, err := newClient(serverURL)
	if err != nil {
		return err
	}
	resp, err := client.Send(ctx, &wire.Ping{Token: *token})
	if err != nil {
		return err
	}
	ack, ok := resp.(*wire.Ack)
	if !ok {
		return fmt.Errorf("unexpected response %s", resp.Type())
	}
	if !ack.OK {
		return fmt.Errorf("server refused: %s", ack.Message)
	}
	fmt.Printf("ok: %s\n", ack.Message)
	if len(ack.Payload) > 0 {
		inner, err := wire.Decode(ack.Payload)
		if err != nil {
			return err
		}
		if sched, ok := inner.(*wire.Schedule); ok {
			fmt.Printf("schedule %s for %s: %d measurements\n",
				sched.TaskID, sched.UserID, len(sched.AtUnix))
			for _, at := range sched.AtUnix {
				fmt.Printf("  %s\n", time.Unix(at, 0).UTC().Format(time.RFC3339))
			}
		}
	}
	return nil
}

// getJSON fetches a debug endpoint and decodes it into out.
func getJSON(ctx context.Context, rawURL string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: HTTP %d: %s", rawURL, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// metrics scrapes /debug/metrics. With -json it relays the raw snapshot;
// otherwise it prints sorted "series value" lines. -require takes a
// comma-separated list of series names that must be present (counters,
// gauges, or histograms) — the obs-smoke CI check exits non-zero through
// it when a series is missing.
func metrics(ctx context.Context, serverURL string, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON snapshot")
	require := fs.String("require", "", "comma-separated series that must exist (exit 1 otherwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var snap sor.MetricsSnapshot
	if err := getJSON(ctx, serverURL+sor.MetricsPath, &snap); err != nil {
		return err
	}
	if *require != "" {
		var missing []string
		for _, series := range strings.Split(*require, ",") {
			series = strings.TrimSpace(series)
			if series == "" {
				continue
			}
			_, c := snap.Counters[series]
			_, g := snap.Gauges[series]
			_, h := snap.Histograms[series]
			if !c && !g && !h {
				missing = append(missing, series)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("missing series: %s", strings.Join(missing, ", "))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	renderMetrics(os.Stdout, snap)
	return nil
}

// renderMetrics writes the sorted human metrics listing. Split from
// metrics so the golden-output test drives it against a bytes.Buffer.
func renderMetrics(w io.Writer, snap sor.MetricsSnapshot) {
	printSorted := func(kind string, m map[string]int64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-8s %-56s %d\n", kind, k, m[k])
		}
	}
	printSorted("counter", snap.Counters)
	printSorted("gauge", snap.Gauges)
	hkeys := make([]string, 0, len(snap.Histograms))
	for k := range snap.Histograms {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := snap.Histograms[k]
		fmt.Fprintf(w, "%-8s %-56s n=%d p50=%.3g p99=%.3g max=%.3g\n",
			"histo", k, h.Count, h.P50, h.P99, h.Max)
	}
}

// replicaCmd scrapes /debug/replica. `replica status` shows the node's
// replication role, and — on a leader — each follower's acked LSN, record
// lag, and liveness; on a follower, its own applied/leader positions and
// connection state.
func replicaCmd(ctx context.Context, serverURL string, args []string) error {
	if len(args) < 1 || args[0] != "status" {
		return fmt.Errorf("usage: sorctl replica status [-json]")
	}
	fs := flag.NewFlagSet("replica status", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON payload")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var st replica.Status
	if err := getJSON(ctx, serverURL+replica.DebugPath, &st); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	renderReplicaStatus(os.Stdout, st)
	return nil
}

// renderReplicaStatus writes the human `replica status` listing. Split
// from replicaCmd so the golden-output test drives it against a
// bytes.Buffer.
func renderReplicaStatus(w io.Writer, st replica.Status) {
	fmt.Fprintf(w, "role %s, log head LSN %d\n", st.Role, st.LastLSN)
	if st.Role == "leader" {
		if len(st.Followers) == 0 {
			fmt.Fprintln(w, "no followers")
			return
		}
		fmt.Fprintf(w, "%-20s %12s %12s %12s  %s\n", "FOLLOWER", "ACK-LSN", "LAG-RECORDS", "SILENT-MS", "LIVE")
		for _, f := range st.Followers {
			fmt.Fprintf(w, "%-20s %12d %12d %12d  %v\n", f.ID, f.AckLSN, f.LagRecords, f.SilentForMS, f.Live)
		}
		return
	}
	if st.Self == nil {
		return
	}
	s := st.Self
	conn := "connected"
	switch {
	case s.NeedsResync:
		conn = "NEEDS RESYNC"
	case !s.Connected:
		conn = fmt.Sprintf("disconnected (%d consecutive failures)", s.Failures)
	}
	fmt.Fprintf(w, "follower %s: applied LSN %d, leader LSN %d, lag %d records, %s\n",
		s.ID, s.AppliedLSN, s.LeaderLSN, s.LagRecords, conn)
	if s.LastContactMS >= 0 {
		fmt.Fprintf(w, "last leader contact %dms ago\n", s.LastContactMS)
	} else {
		fmt.Fprintln(w, "never heard from the leader")
	}
}

// clusterCmd scrapes /debug/cluster on a router (or any node registered
// in a cluster). `cluster status` shows every shard with its members'
// roles, liveness, and applied LSNs, plus each registered app's resolved
// shard placement.
func clusterCmd(ctx context.Context, serverURL string, args []string) error {
	if len(args) < 1 || args[0] != "status" {
		return fmt.Errorf("usage: sorctl cluster status [-json]")
	}
	fs := flag.NewFlagSet("cluster status", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON payload")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var st cluster.Status
	if err := getJSON(ctx, serverURL+cluster.DebugPath, &st); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	renderClusterStatus(os.Stdout, st)
	return nil
}

// renderClusterStatus writes the human `cluster status` listing. Split
// from clusterCmd so the golden-output test drives it against a
// bytes.Buffer.
func renderClusterStatus(w io.Writer, st cluster.Status) {
	if st.Router != "" {
		fmt.Fprintf(w, "router %s\n", st.Router)
	}
	if len(st.Shards) == 0 {
		fmt.Fprintln(w, "no shards registered")
		return
	}
	for _, s := range st.Shards {
		fmt.Fprintf(w, "shard %s (leader %s)\n", s.Name, orDash(s.Leader))
		fmt.Fprintf(w, "  %-20s %-8s %-28s %12s %12s  %s\n",
			"MEMBER", "ROLE", "ADDR", "APPLIED-LSN", "SILENT-MS", "LIVE")
		for _, m := range s.Members {
			silent := "-"
			if m.SilentForMS >= 0 {
				silent = fmt.Sprint(m.SilentForMS)
			}
			fmt.Fprintf(w, "  %-20s %-8s %-28s %12d %12s  %v\n",
				m.Name, m.Role, m.Addr, m.AppliedLSN, silent, m.Live)
		}
	}
	if len(st.Apps) > 0 {
		fmt.Fprintf(w, "%-24s %-20s %s\n", "APP", "CATEGORY", "SHARD")
		for _, a := range st.Apps {
			fmt.Fprintf(w, "%-24s %-20s %s\n", a.AppID, a.Category, a.Shard)
		}
	}
}

// trace scrapes /debug/trace: recent spans, optionally filtered to one
// RequestID — the way to follow a single upload through retries, the
// handler, dedup, and the processor fold.
func trace(ctx context.Context, serverURL string, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	requestID := fs.String("request", "", "only spans for this RequestID")
	limit := fs.Int("limit", 0, "at most this many spans (most recent; 0 = all buffered)")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *requestID != "" {
		q.Set("request_id", *requestID)
	}
	if *limit > 0 {
		q.Set("limit", fmt.Sprint(*limit))
	}
	traceURL := serverURL + sor.TracePath
	if len(q) > 0 {
		traceURL += "?" + q.Encode()
	}
	var resp struct {
		Total   int64            `json:"total"`
		Dropped int64            `json:"dropped"`
		Spans   []sor.SpanRecord `json:"spans"`
	}
	if err := getJSON(ctx, traceURL, &resp); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	fmt.Printf("%d spans buffered (%d recorded, %d evicted)\n", len(resp.Spans), resp.Total, resp.Dropped)
	for _, s := range resp.Spans {
		fmt.Printf("%s  %-16s %8.3fms  req=%s", s.Start.Format("15:04:05.000"), s.Name,
			float64(s.Duration)/float64(time.Millisecond), orDash(string(s.RequestID)))
		for _, a := range s.Attrs {
			fmt.Printf("  %s=%s", a.Key, a.Value)
		}
		fmt.Println()
	}
	return nil
}

func orAnon(name string) string {
	if name == "" {
		return "(default preferences)"
	}
	return name
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
