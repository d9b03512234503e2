package wire_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"sor/internal/transport/session"
	"sor/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden")

// TestFramesGolden pins the bytes of every message the codec knows: each
// fuzz seed as a version-1 frame and as a version-2 frame carrying a fixed
// RequestID, plus the session handshake payloads. Any change to a
// primitive, a field order or an optional trailer shows as a hex diff.
// Regenerate (only for a deliberate format change) with
// `go test ./internal/wire -run TestFramesGolden -update`.
func TestFramesGolden(t *testing.T) {
	var b strings.Builder
	for i, m := range wire.FuzzSeeds() {
		v1, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := wire.EncodeTraced(m, "golden-req-1")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%02d %s v1 %x\n", i, m.Type(), v1)
		fmt.Fprintf(&b, "%02d %s v2 %x\n", i, m.Type(), v2)
	}
	for _, h := range []session.Hello{
		{Proto: 1, Token: "tok-golden", Caps: []string{"batch", "push", "resume"}},
		{Proto: 7, Token: ""},
	} {
		fmt.Fprintf(&b, "hello %x\n", session.EncodeHello(h))
	}
	for _, w := range []session.Welcome{
		{Proto: 1, Caps: []string{"batch"}, Resumed: true},
		{Proto: 1},
	} {
		fmt.Fprintf(&b, "welcome %x\n", session.EncodeWelcome(w))
	}
	got := b.String()
	const golden = "testdata/frames.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/wire -run TestFramesGolden -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("encoded bytes differ from %s:\ngot:\n%s", golden, got)
	}
}
