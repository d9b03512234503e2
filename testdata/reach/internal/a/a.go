// Package a holds one declaration of each kind the reachability test must
// catch, and of each it must leave alone.
package a

import "fmt"

// UsedByMain is called by main, so an allowlist entry for it is stale.
func UsedByMain() int { return 1 }

// DeadFunc is exported and called by nothing.
func DeadFunc() { _ = loudness(nil) }

// loudness is unexported and called only by dead code.
func loudness(w *Widget) bool { return w != nil && w.loud }

// Orphan is reachable only from its dead constructor.
type Orphan struct{ n int }

// NewOrphan is called only by a test.
func NewOrphan() *Orphan { return &Orphan{} }

// Size is a method of the unreached type.
func (o *Orphan) Size() int { return o.n }

// Widget is what main builds.
type Widget struct{ quiet, loud bool }

// Option configures New.
type Option func(*Widget)

// WithQuiet is set by main.
func WithQuiet() Option { return func(w *Widget) { w.quiet = true } }

// WithLoud is set only by its own test.
func WithLoud() Option { return func(w *Widget) { w.loud = true } }

// New builds a widget.
func New(opts ...Option) *Widget {
	w := &Widget{}
	for _, o := range opts {
		o(w)
	}
	return w
}

// String is reached through fmt.Stringer when main prints a widget.
func (w *Widget) String() string { return fmt.Sprintf("widget(quiet=%v, loud=%v)", w.quiet, w.loud) }

// KeptForTests is allowlisted.
func KeptForTests() int { return KeptHelper() }

// KeptHelper is reached only from an allowlisted entry, so it is kept.
func KeptHelper() int { return 2 }

// UsedByTool is called only from the tools caller directory.
func UsedByTool() {}

// Unasserted meets fmt.Stringer only in a compile-time assertion.
type Unasserted struct{}

var _ fmt.Stringer = Unasserted{}

// String is never called.
func (Unasserted) String() string { return "" }
