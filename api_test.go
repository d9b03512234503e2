package sor_test

import (
	"context"
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"sor"
	"sor/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicSurface pins the facade's exported top-level identifiers
// against testdata/api.golden, so a PR that adds or removes a public name
// shows it as a one-line golden diff. Regenerate with
// `go test -run TestPublicSurface -update .`.
func TestPublicSurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["sor"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names = append(names, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, strings.ToLower(d.Tok.String())+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	const golden = "testdata/api.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run: go test -run TestPublicSurface -update .): %v", err)
	}
	if got != string(want) {
		t.Fatalf("public surface differs from %s (if intended: go test -run TestPublicSurface -update .)\ngot:\n%s", golden, got)
	}
}

// TestPublicSurfaceBootsObservableServer stands up a complete observable
// deployment through the public API alone — server, HTTP handler, debug
// endpoints, client — sends one request, and reads it back out of the
// metrics and trace endpoints. This is the integration the cmd/ binaries
// are built from, pinned without any internal import (wire aside, which
// is the protocol itself).
func TestPublicSurfaceBootsObservableServer(t *testing.T) {
	o := sor.NewObserver()
	srv, err := sor.NewServer(
		sor.WithCatalog(sor.DefaultCatalog()),
		sor.WithTransport(sor.NewSessionRegistry()),
		sor.WithObserver(o),
	)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Observer() != o {
		t.Fatal("WithObserver did not reach the server")
	}

	h, err := sor.NewHTTPHandler(srv.Handler(), sor.WithHandlerObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(sor.ServerPath, h)
	sor.RegisterDebug(mux, o)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	client, err := sor.NewClient(ts.URL,
		sor.WithClientRetry(sor.Retry{Attempts: 1, Base: time.Millisecond, Seed: 1}),
		sor.WithClientObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	// An unknown token is still a served request: it exercises the full
	// client→handler→dispatch path and must show up in every layer's
	// series.
	resp, err := client.Send(context.Background(), &wire.Ping{Token: "nobody"})
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := resp.(*wire.Ack); !ok || ack.OK {
		t.Fatalf("ping for an unknown token returned %+v, want a refusing ack", resp)
	}

	// The metrics endpoint serves a snapshot containing the series every
	// layer registered eagerly at construction.
	metricsResp, err := http.Get(ts.URL + sor.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = metricsResp.Body.Close() }()
	var snap sor.MetricsSnapshot
	if err := json.NewDecoder(metricsResp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding %s: %v", sor.MetricsPath, err)
	}
	for _, series := range []string{
		"sor_http_requests_total",
		"sor_client_sends_total",
		`sor_server_requests_total{type="ping"}`,
		"sor_ingest_accepted_total",
	} {
		if _, ok := snap.Counters[series]; !ok {
			t.Errorf("metrics endpoint missing series %s", series)
		}
	}
	if got := snap.Counters["sor_http_requests_total"]; got != 1 {
		t.Errorf("sor_http_requests_total = %d, want 1", got)
	}
	if got := snap.Counters[`sor_server_requests_total{type="ping"}`]; got != 1 {
		t.Errorf(`sor_server_requests_total{type="ping"} = %d, want 1`, got)
	}

	// The trace endpoint has the request's spans, client and server side
	// stitched by one RequestID.
	traceResp, err := http.Get(ts.URL + sor.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = traceResp.Body.Close() }()
	var trace struct {
		Spans []sor.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(traceResp.Body).Decode(&trace); err != nil {
		t.Fatalf("decoding %s: %v", sor.TracePath, err)
	}
	names := map[string]sor.RequestID{}
	for _, s := range trace.Spans {
		names[s.Name] = s.RequestID
	}
	if names["client.send"] == "" || names["server.handle"] == "" {
		t.Fatalf("trace endpoint spans = %v, want client.send and server.handle", names)
	}
	if names["client.send"] != names["server.handle"] {
		t.Errorf("client and server spans carry different RequestIDs: %q vs %q",
			names["client.send"], names["server.handle"])
	}
}

// TestNewServerDefaults pins that the zero-option constructor is usable:
// fresh store, default catalog, observability off.
func TestNewServerDefaults(t *testing.T) {
	srv, err := sor.NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Observer() != nil {
		t.Fatal("zero-option server should have no observer")
	}
	if _, err := srv.Handler()(context.Background(), &wire.Ping{Token: "x"}); err != nil {
		t.Fatalf("default server refused a ping dispatch: %v", err)
	}
}

// TestBuiltinProfiles pins the profile lookup the CLI leans on.
func TestBuiltinProfiles(t *testing.T) {
	profiles := sor.BuiltinProfiles("coffee-shop")
	if len(profiles) == 0 {
		t.Fatal("no built-in coffee-shop profiles")
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		seen[p.Name] = true
	}
	if !seen["Emma"] && !seen["emma"] {
		t.Errorf("built-in profiles %v missing the paper's Emma", seen)
	}
}
